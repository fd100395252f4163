(* In-memory span recorder for the traced run.

   A span is one timed call into a layer's public function, recorded from
   the benchmark side: name, start, end and the span that was open when
   it started.  Spans stay in memory and are written out once, after the
   run.  With recording off, [span] is a plain call. *)

type t = { id : int; parent : int; name : string; start : float; stop : float }

let epoch = Unix.gettimeofday ()
let recording = ref false
let finished : t list ref = ref []
let open_ids : int list ref = ref []
let next_id = ref 0

let span name f =
  if not !recording then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_ids with p :: _ -> p | [] -> -1 in
    open_ids := id :: !open_ids;
    let start = Unix.gettimeofday () -. epoch in
    Fun.protect
      ~finally:(fun () ->
        let stop = Unix.gettimeofday () -. epoch in
        open_ids := List.tl !open_ids;
        finished := { id; parent; name; start; stop } :: !finished)
      f
  end

let traced f =
  recording := true;
  Fun.protect ~finally:(fun () -> recording := false) f

(* Durations of every finished span called [name], oldest first. *)
let durations name =
  List.rev !finished
  |> List.filter_map (fun s ->
         if String.equal s.name name then Some (s.stop -. s.start) else None)

let write path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\": %d, \"parent\": %d, \"name\": %S, \"start\": %.6f, \
             \"end\": %.6f}\n"
            s.id s.parent s.name s.start s.stop)
        (List.rev !finished))
