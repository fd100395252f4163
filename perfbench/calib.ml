(* Machine-speed calibration.

   The CPU speed of a shared 2-core VM drifts by 20% and more within
   minutes, in wall and CPU time alike, so raw times of runs made a few
   minutes apart are not comparable.  [time ()] times a fixed piece of
   work that belongs to the benchmark and to no layer of the program:
   breadth-first searches over a seeded 4096-node graph held in plain
   arrays, with the irregular memory access of a routing drain.  A
   change to the program cannot make it faster or slower.  [scale]
   converts a raw time measured between two calibrations into
   reference seconds: seconds on a machine where one calibration takes
   [nominal_s]. *)

let nodes = 4096
let degree = 8
let roots = 150

(* Neighbour lists from a fixed linear congruential generator. *)
let adj =
  let state = ref 12345 in
  Array.init (nodes * degree) (fun _ ->
      state := ((!state * 1103515245) + 12345) land 0x3fffffff;
      (!state lsr 8) mod nodes)

let dist = Array.make nodes 0
let queue = Array.make nodes 0

let bfs root =
  Array.fill dist 0 nodes (-1);
  dist.(root) <- 0;
  queue.(0) <- root;
  let head = ref 0 and tail = ref 1 and sum = ref 0 in
  while !head < !tail do
    let v = queue.(!head) in
    incr head;
    sum := !sum + dist.(v);
    for k = v * degree to (v * degree) + degree - 1 do
      let u = adj.(k) in
      if dist.(u) < 0 then begin
        dist.(u) <- dist.(v) + 1;
        queue.(!tail) <- u;
        incr tail
      end
    done
  done;
  !sum

let work () =
  let acc = ref 0 in
  for r = 0 to roots - 1 do
    acc := !acc + bfs (r * 131 mod nodes)
  done;
  !acc

let time () =
  let t0 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (work ()));
  Unix.gettimeofday () -. t0

(* One calibration on the machine the reference seconds refer to. *)
let nominal_s = 0.02

let scale ~before ~after raw = raw *. nominal_s /. ((before +. after) /. 2.)
