(* End-to-end benchmark of the paper's experiment suite.

   main.exe --workload W [--seed S] [--seconds T] [--trace 0|1]
            [--out-dir DIR] [--reference FILE] [--git-rev REV]
            [--write-reference]

   Runs one named workload (see README.md for why each exists) from a
   single process.  Every iteration builds fresh contexts — topology
   generation, IXP augmentation, tier classification, CSR and worker pool
   are its set-up — then runs the workload's Registry entries and
   digests each output.  Iterations cycle over [graph_seeds] inputs
   derived from the seed until [--seconds] have passed.

   Untraced ([--trace 0]) the last stdout line carries the end-to-end
   metrics; traced ([--trace 1]) it carries the per-layer rows: each
   untraced iteration is paired with a traced one on the same input,
   then the Registry entries outside the workload run once each and the
   probes (probes.ml) run on the base graph.  Spans are written to
   DIR/spans-<workload>-<seed>.jsonl and the full result document, with
   its metadata block, to DIR/result-<workload>-<seed>-trace<t>.json.

   Correctness: every output digest of a default-seed input must equal
   the reference digest stored in [--reference].  Whatever the seed,
   each run ends with one more iteration on a default-seed input, at the
   other domain count (1 <-> nproc), so every run checks the reference.
   At every seed each repeat of an input must also reproduce the digests
   of its first run.  [--write-reference] records the default-seed
   digests instead of measuring. *)

open Core
module Context = Experiments.Context
module Registry = Experiments.Registry

let n = 4000
let default_seed = 42
let graph_seeds = 6
let graph_seed seed j = seed + (j * 104729)

(* The default-seed input a run at [seed] checks against the reference:
   the six of them take turns as the seed changes. *)
let reference_input seed = graph_seed default_seed (((seed mod graph_seeds) + graph_seeds) mod graph_seeds)

let nproc = Domain.recommended_domain_count ()

type workload = {
  name : string;
  scale : float;
  domains : int;
  base : string list;  (** Registry ids run on the base graph *)
  ixp : string list;  (** Registry ids run on the IXP-augmented graph *)
}

let appendix_j = [ "baseline"; "partitions"; "partitions-tier"; "lpk" ]
let partition_ids = [ "partitions"; "partitions-tier"; "lpk" ]

let workloads =
  [
    { name = "paper-suite"; scale = 0.1; domains = 1; base = Registry.ids (); ixp = appendix_j };
    { name = "partition-family"; scale = 0.15; domains = 1; base = partition_ids; ixp = partition_ids };
    {
      name = "rollout-family";
      scale = 0.3;
      domains = nproc;
      base = [ "rollout"; "per-destination"; "early-adopters"; "optimize" ];
      ixp = [];
    };
  ]

(* ---- command line: every malformed value stops the run by name ---- *)

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 2) fmt

type args = {
  workload : workload;
  seed : int;
  seconds : float;
  trace : bool;
  out_dir : string;
  reference : string;
  git_rev : string;
  write_reference : bool;
}

let parse_args () =
  let workload = ref None and seed = ref default_seed and seconds = ref 30. and trace = ref false in
  let out_dir = ref ".bench_out" and reference = ref "perfbench/reference.txt" in
  let git_rev = ref "unknown" and write_reference = ref false in
  let int_of flag s =
    match int_of_string_opt s with
    | Some v -> v
    | None -> die "%s: expected an integer, got %S" flag s
  in
  let rec go = function
    | [] -> ()
    | "--write-reference" :: rest ->
        write_reference := true;
        go rest
    | flag :: value :: rest ->
        (match flag with
        | "--workload" -> (
            match List.find_opt (fun w -> String.equal w.name value) workloads with
            | Some w -> workload := Some w
            | None ->
                die "--workload: unknown workload %S (known: %s)" value
                  (String.concat ", " (List.map (fun w -> w.name) workloads)))
        | "--seed" -> seed := int_of flag value
        | "--seconds" ->
            let s = int_of flag value in
            if s < 1 then die "--seconds: must be at least 1, got %d" s;
            seconds := float_of_int s
        | "--trace" -> (
            match value with
            | "0" -> trace := false
            | "1" -> trace := true
            | _ -> die "--trace: expected 0 or 1, got %S" value)
        | "--out-dir" -> out_dir := value
        | "--reference" -> reference := value
        | "--git-rev" -> git_rev := value
        | _ -> die "unknown argument %S" flag);
        go rest
    | [ flag ] -> die "%s: missing value" flag
  in
  go (List.tl (Array.to_list Sys.argv));
  match !workload with
  | None -> die "--workload is required"
  | Some workload ->
      {
        workload;
        seed = !seed;
        seconds = !seconds;
        trace = !trace;
        out_dir = !out_dir;
        reference = !reference;
        git_rev = !git_rev;
        write_reference = !write_reference;
      }

(* ---- one iteration: set-up, then the workload's experiment calls ---- *)

let span = Span.span

(* Context.make, decomposed so the traced run sees each set-up stage, and
   bound to the iteration's own pool. *)
let make_context w ~seed ~pool ~ixp =
  let r =
    span "topogen.generate" (fun () ->
        Topogen.generate ~params:(Topogen.default_params ~n) (Rng.create seed))
  in
  let graph, label =
    if ixp then (span "topology.ixp" (fun () -> fst (Ixp.augment (Rng.create (seed + 1)) r.Topogen.graph)), "ixp")
    else (r.Topogen.graph, "base")
  in
  let ctx =
    span "topology.tiers" (fun () ->
        Context.of_graph ~seed ~scale:w.scale ~domains:(Parallel.Pool.size pool) ~label graph ~cps:r.Topogen.cps)
  in
  ignore (span "topology.csr" (fun () -> Graph.csr graph));
  { ctx with Context.pool_cell = Lazy.from_val pool }

type outcome = {
  setup_s : float;  (** reference seconds, see Calib *)
  wall_s : float;  (** reference seconds *)
  setup_raw_s : float;
  wall_raw_s : float;
  calib_s : float;  (** median calibration time during the iteration *)
  peak_rss_mb : float;  (** process VmHWM at the end of the iteration *)
  calls : (string * float) list;  (** row, reference seconds of its run *)
  digests : (string * (string, string) result) list;  (** row, digest or exception *)
  cache_hits : int;
  cache_misses : int;
  minor_words : float;
  promoted_words : float;
  major_collections : int;
}

let now = Unix.gettimeofday

let vm_hwm_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb -> float_of_int kb /. 1024.)
        | _ -> scan ()
        | exception End_of_file -> failwith "VmHWM not found in /proc/self/status"
      in
      scan ())

(* [f ()] followed by a calibration.  Returns the result, the raw time
   and the time in reference seconds, scaled by the calibrations just
   before (the one in [cals]) and just after the call. *)
let calibrated cals f =
  let t0 = now () in
  let x = f () in
  let raw = now () -. t0 in
  let c = Calib.time () in
  let ref_s = Calib.scale ~before:(List.hd !cals) ~after:c raw in
  cals := c :: !cals;
  (x, raw, ref_s)

let run_entries cals ctx ids =
  List.map
    (fun id ->
      let row = ctx.Context.label ^ ":" ^ id in
      match Registry.find id with
      | None -> (row, Error "not in Registry", 0., 0.)
      | Some e ->
          let out, raw, ref_s =
            calibrated cals (fun () ->
                let name = Printf.sprintf "experiments.%s.%s" id ctx.Context.label in
                match span name (fun () -> e.Registry.run ctx) with
                | out -> Ok out
                | exception ex -> Error (Printexc.to_string ex))
          in
          (row, Result.map (fun s -> Digest.to_hex (Digest.string s)) out, raw, ref_s))
    ids

let iteration w ~seed ~domains =
  (* Start every iteration from the same compacted heap, so one
     iteration's garbage does not land in the next one's time. *)
  Gc.compact ();
  let cals = ref [ Calib.time () ] in
  let q0 = Gc.quick_stat () in
  let pool = ref None in
  Fun.protect
    ~finally:(fun () -> Option.iter Parallel.Pool.shutdown !pool)
    (fun () ->
      let (base, ixp), setup_raw_s, setup_s =
        calibrated cals (fun () ->
            let p = span "parallel.pool_create" (fun () -> Parallel.Pool.create ~domains ()) in
            pool := Some p;
            let base = make_context w ~seed ~pool:p ~ixp:false in
            (base, if w.ixp = [] then None else Some (make_context w ~seed ~pool:p ~ixp:true)))
      in
      let on_base = run_entries cals base w.base in
      let runs = on_base @ match ixp with Some c -> run_entries cals c w.ixp | None -> [] in
      let q1 = Gc.quick_stat () in
      let ctxs = base :: Option.to_list ixp in
      let sum f = List.fold_left (fun a c -> a + f (Context.cache c)) 0 ctxs in
      let total f = List.fold_left (fun a r -> a +. f r) 0. runs in
      {
        setup_s;
        wall_s = total (fun (_, _, _, s) -> s);
        setup_raw_s;
        wall_raw_s = total (fun (_, _, raw, _) -> raw);
        calib_s = Probes.median !cals;
        peak_rss_mb = vm_hwm_mb ();
        calls = List.map (fun (row, _, _, s) -> (row, s)) runs;
        digests = List.map (fun (row, d, _, _) -> (row, d)) runs;
        cache_hits = sum Metric.Cache.hits;
        cache_misses = sum Metric.Cache.misses;
        minor_words = q1.Gc.minor_words -. q0.Gc.minor_words;
        promoted_words = q1.Gc.promoted_words -. q0.Gc.promoted_words;
        major_collections = q1.Gc.major_collections - q0.Gc.major_collections;
      })

(* ---- correctness: reference digests and repeat consistency ---- *)

let attempted = ref 0
let failed = ref 0

let fail fmt =
  Printf.ksprintf
    (fun s ->
      incr failed;
      prerr_endline ("perfbench: FAILED " ^ s))
    fmt

(* Per (graph seed, row): whether any of its attempts failed.  [ok_frac]
   counts these, not attempts, so one experiment that is wrong on one
   input costs at least 1 / (rows x inputs) however often it is run. *)
let outputs : (int * string, bool) Hashtbl.t = Hashtbl.create 64

let note_output ~gseed row ok =
  let was = Option.value ~default:true (Hashtbl.find_opt outputs (gseed, row)) in
  Hashtbl.replace outputs (gseed, row) (was && ok)

let ok_frac () =
  let good = Hashtbl.fold (fun _ ok acc -> if ok then acc + 1 else acc) outputs 0 in
  float_of_int good /. float_of_int (max 1 (Hashtbl.length outputs))

(* "<workload> <graph seed> <row> <digest>" per line. *)
let load_reference path =
  let tbl = Hashtbl.create 64 in
  if Sys.file_exists path then begin
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        try
          while true do
            match String.split_on_char ' ' (String.trim (input_line ic)) with
            | [ w; s; row; d ] when int_of_string_opt s <> None -> Hashtbl.replace tbl (w, int_of_string s, row) d
            | [ "" ] -> ()
            | _ -> die "%s: malformed reference line" path
          done
        with End_of_file -> ())
  end;
  tbl

(* First digest seen per (graph seed, row): later runs must match it. *)
let first_seen : (int * string, string) Hashtbl.t = Hashtbl.create 64

let check_outcome ~reference w ~gseed ~what o =
  List.iter
    (fun (row, r) ->
      incr attempted;
      let failed_before = !failed in
      (match r with
      | Error msg -> fail "%s %s (graph seed %d): raised %s" what row gseed msg
      | Ok d -> (
          match Hashtbl.find_opt reference (w.name, gseed, row) with
          | Some want when not (String.equal want d) ->
              fail "%s %s (graph seed %d): digest %s, reference %s" what row gseed d want
          | _ -> (
              match Hashtbl.find_opt first_seen (gseed, row) with
              | None -> Hashtbl.add first_seen (gseed, row) d
              | Some first when not (String.equal first d) ->
                  fail "%s %s (graph seed %d): digest %s differs from the first run's %s" what row gseed d first
              | Some _ -> ())));
      note_output ~gseed row (!failed = failed_before))
    o.digests

(* ---- statistics and output ---- *)

let median = Probes.median

(* Per input the median over its iterations, then the mean over inputs:
   every run weighs the same [graph_seeds] graphs equally. *)
let per_input_mean samples f =
  let inputs = List.sort_uniq Int.compare (List.map fst samples) in
  let of_input j = List.filter_map (fun (k, o) -> if k = j then Some (f o) else None) samples in
  let meds = List.map (fun j -> median (of_input j)) inputs in
  List.fold_left ( +. ) 0. meds /. float_of_int (List.length meds)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 || Char.code c > 0x7e -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_number name v =
  if not (Float.is_finite v) then failwith (Printf.sprintf "row %s is not finite" name);
  Printf.sprintf "%.17g" v

let json_obj fields = "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields) ^ "}"

let cpu_model () =
  match open_in "/proc/cpuinfo" with
  | exception Sys_error _ -> "unknown"
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let rec scan () =
            match input_line ic with
            | line when String.starts_with ~prefix:"model name" line -> (
                match String.index_opt line ':' with
                | Some i -> String.trim (String.sub line (i + 1) (String.length line - i - 1))
                | None -> "unknown")
            | _ -> scan ()
            | exception End_of_file -> "unknown"
          in
          scan ())

let meta a ~swap_domains =
  let w = a.workload in
  [
    ("workload", json_string w.name);
    ("git_rev", json_string a.git_rev);
    ("n", string_of_int n);
    ("seed", string_of_int a.seed);
    ( "graph_seeds",
      "[" ^ String.concat ", " (List.init graph_seeds (fun j -> string_of_int (graph_seed a.seed j))) ^ "]" );
    ("scale", json_number "scale" w.scale);
    ("domains", string_of_int w.domains);
    ("swap_check_domains", string_of_int swap_domains);
    ("nproc", string_of_int nproc);
    ("ocaml_version", json_string Sys.ocaml_version);
    ("cpu_model", json_string (cpu_model ()));
    ("ocamlrunparam", json_string (Option.value ~default:"" (Sys.getenv_opt "OCAMLRUNPARAM")));
    ("seconds", json_number "seconds" a.seconds);
    ("trace", if a.trace then "1" else "0");
  ]

(* The one row emitter: the result document under [out_dir] and, as the
   last stdout line, the JSON summary (correct, attempted, failed and the
   rows as metrics).  The [extra] rows (raw times, calibration) go to the
   document only. *)
let emit a ~swap_domains ~(extra : Probes.row list) (rows : Probes.row list) =
  let row_json (r : Probes.row) =
    json_obj
      [
        ("name", json_string r.name);
        ("value", json_number r.name r.value);
        ("unit", json_string r.unit);
        ("domains", string_of_int r.domains);
      ]
  in
  let doc =
    json_obj
      [
        ("meta", json_obj (meta a ~swap_domains));
        ("attempted", string_of_int !attempted);
        ("failed", string_of_int !failed);
        ("rows", "[\n  " ^ String.concat ",\n  " (List.map row_json (rows @ extra)) ^ "\n]");
      ]
  in
  let path =
    Filename.concat a.out_dir
      (Printf.sprintf "result-%s-%d-trace%d.json" a.workload.name a.seed (if a.trace then 1 else 0))
  in
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (doc ^ "\n"));
  Printf.printf "wrote %s\n" path;
  let metrics =
    List.map
      (fun (r : Probes.row) ->
        (r.name, json_obj [ ("value", json_number r.name r.value); ("unit", json_string r.unit) ]))
      rows
  in
  print_endline
    (json_obj
       [
         ("correct", if !failed = 0 then "true" else "false");
         ("attempted", string_of_int (max 1 !attempted));
         ("failed", string_of_int !failed);
         ("metrics", json_obj metrics);
       ])

(* ---- the runs ---- *)

let report what ~gseed o =
  Printf.printf
    "%-9s graph seed %-7d setup %.3f s  wall %.3f s  peak %.1f MB  (raw: setup %.3f s  wall %.3f s  \
     calib %.4f s)\n%!"
    what gseed o.setup_s o.wall_s o.peak_rss_mb o.setup_raw_s o.wall_raw_s o.calib_s

let swap_check a ~reference ~swap_domains =
  let gseed = reference_input a.seed in
  let o = iteration a.workload ~seed:gseed ~domains:swap_domains in
  report (Printf.sprintf "check@%dd" swap_domains) ~gseed o;
  check_outcome ~reference a.workload ~gseed ~what:(Printf.sprintf "%d-domain check" swap_domains) o

let measure_loop a ~reference body =
  let t0 = now () in
  let rec go i acc =
    if i >= graph_seeds && now () -. t0 >= a.seconds then List.rev acc
    else begin
      let j = i mod graph_seeds in
      let gseed = graph_seed a.seed j in
      go (i + 1) ((j, body ~gseed ~check:(check_outcome ~reference a.workload ~gseed)) :: acc)
    end
  in
  go 0 []

let untraced a ~reference ~swap_domains =
  let w = a.workload in
  let samples =
    measure_loop a ~reference (fun ~gseed ~check ->
        let o = iteration w ~seed:gseed ~domains:w.domains in
        report "run" ~gseed o;
        check ~what:"run" o;
        o)
  in
  swap_check a ~reference ~swap_domains;
  let stat name unit f = Probes.row ~domains:w.domains name unit (per_input_mean samples f) in
  ( [
      stat "wall_s" "s" (fun o -> o.wall_s);
      stat "setup_s" "s" (fun o -> o.setup_s);
      (* The heap does not shrink between iterations, and with a pool
         wider than one domain it keeps growing a little with each one,
         so the peak is read after the first pass over the inputs: the
         same work in every run, however fast the machine. *)
      Probes.row ~domains:w.domains "peak_rss_mb" "MB" (snd (List.nth samples (graph_seeds - 1))).peak_rss_mb;
      Probes.row ~domains:w.domains "ok_frac" "ratio" (ok_frac ());
    ],
    [
      stat "wall_raw_s" "s" (fun o -> o.wall_raw_s);
      stat "setup_raw_s" "s" (fun o -> o.setup_raw_s);
      stat "calib_s" "s" (fun o -> o.calib_s);
    ] )

let probe_input a ~pool =
  let seed = graph_seed a.seed 0 in
  let r = Topogen.generate ~params:(Topogen.default_params ~n) (Rng.create seed) in
  let ctx =
    Context.of_graph ~seed ~scale:a.workload.scale ~domains:(Parallel.Pool.size pool) ~label:"base"
      r.Topogen.graph ~cps:r.Topogen.cps
  in
  {
    Probes.g = ctx.Context.graph;
    tiers = ctx.Context.tiers;
    seed;
    ctx = { ctx with Context.pool_cell = Lazy.from_val pool };
    pool;
    nproc;
    out_dir = a.out_dir;
  }

let traced a ~reference ~swap_domains =
  let w = a.workload in
  let pairs =
    measure_loop a ~reference (fun ~gseed ~check ->
        let plain = iteration w ~seed:gseed ~domains:w.domains in
        report "run" ~gseed plain;
        check ~what:"run" plain;
        let tr = Span.traced (fun () -> span "iteration" (fun () -> iteration w ~seed:gseed ~domains:w.domains)) in
        report "traced" ~gseed tr;
        check ~what:"traced run" tr;
        (plain, tr))
  in
  let first = snd (List.hd pairs) |> fst in
  (* Registry entries outside the workload: once each, so every
     experiments.* row exists on every workload. *)
  let others ids mine = List.filter (fun id -> not (List.mem id mine)) ids in
  let rest = { w with base = others (Registry.ids ()) w.base; ixp = others appendix_j w.ixp } in
  let gseed = graph_seed a.seed 0 in
  let catch_up =
    if rest.base = [] && rest.ixp = [] then []
    else begin
      let o = Span.traced (fun () -> span "catch-up" (fun () -> iteration rest ~seed:gseed ~domains:w.domains)) in
      report "catch-up" ~gseed o;
      check_outcome ~reference rest ~gseed ~what:"catch-up" o;
      [ o ]
    end
  in
  (* The topology setup spans also cover the IXP stage on every workload. *)
  let pool = Parallel.Pool.create ~domains:w.domains () in
  let probe_rows =
    Fun.protect
      ~finally:(fun () -> Parallel.Pool.shutdown pool)
      (fun () ->
        Span.traced (fun () ->
            span "setup-probe" (fun () ->
                ignore (make_context w ~seed:gseed ~pool ~ixp:false);
                ignore (make_context w ~seed:gseed ~pool ~ixp:true)));
        let inp = probe_input a ~pool in
        List.concat_map
          (fun (name, probe) ->
            incr attempted;
            let t0 = now () in
            match Span.traced (fun () -> span ("probe." ^ name) (fun () -> probe inp)) with
            | rows ->
                Printf.printf "probe %-9s %.3f s\n%!" name (now () -. t0);
                rows
            | exception Probes.Gate msg ->
                fail "probe %s: %s" name msg;
                [])
          Probes.all)
  in
  swap_check a ~reference ~swap_domains;
  let pairs = List.map snd pairs in
  (* Experiment rows in reference seconds, from every iteration of the
     traced run; set-up rows are raw span times. *)
  let calls = List.concat_map (fun o -> o.calls) (List.concat_map (fun (p, t) -> [ p; t ]) pairs @ catch_up) in
  let experiment_row label id =
    let row = label ^ ":" ^ id in
    Probes.row ~domains:w.domains
      (Printf.sprintf "experiments.%s.%s_s" id label)
      "s"
      (median (List.filter_map (fun (r, s) -> if String.equal r row then Some s else None) calls))
  in
  let experiment_rows =
    List.map (experiment_row "base") (Registry.ids ()) @ List.map (experiment_row "ixp") appendix_j
  in
  let setup_rows =
    List.map
      (fun name -> Probes.row (name ^ "_s") "s" (median (Span.durations name)))
      [ "topogen.generate"; "topology.ixp"; "topology.tiers"; "topology.csr" ]
  in
  let gc f = median (List.map (fun (plain, _) -> f plain) pairs) in
  let sum f = List.fold_left (fun acc p -> acc +. f p) 0. pairs in
  let hits = float_of_int first.cache_hits and misses = float_of_int first.cache_misses in
  let dw = w.domains in
  ( experiment_rows @ setup_rows @ probe_rows
    @ Probes.
        [
        row ~domains:dw "cache.hits" "count" hits;
        row ~domains:dw "cache.misses" "count" misses;
        row ~domains:dw "cache.hit_ratio" "ratio" (if hits +. misses > 0. then hits /. (hits +. misses) else 0.);
        row ~domains:dw "gc.minor_words" "words" (gc (fun o -> o.minor_words));
        row ~domains:dw "gc.promoted_words" "words" (gc (fun o -> o.promoted_words));
        row ~domains:dw "gc.major_collections" "count" (gc (fun o -> float_of_int o.major_collections));
        row ~domains:dw "trace.overhead_frac" "ratio"
            ((sum (fun (_, t) -> t.wall_s) /. sum (fun (p, _) -> p.wall_s)) -. 1.);
        ],
    [] )

let write_reference a =
  let w = a.workload in
  if a.seed <> default_seed then
    die "--write-reference: only the default seed %d has reference digests" default_seed;
  let lines =
    List.concat_map
      (fun j ->
        let gseed = graph_seed a.seed j in
        let o = iteration w ~seed:gseed ~domains:w.domains in
        report "reference" ~gseed o;
        List.map
          (fun (row, r) ->
            match r with
            | Ok d -> Printf.sprintf "%s %d %s %s" w.name gseed row d
            | Error msg -> die "%s (graph seed %d) raised %s" row gseed msg)
          o.digests)
      (List.init graph_seeds Fun.id)
  in
  let keep =
    if Sys.file_exists a.reference then
      In_channel.with_open_text a.reference In_channel.input_all
      |> String.split_on_char '\n'
      |> List.filter (fun l -> l <> "" && not (String.starts_with ~prefix:(w.name ^ " ") l))
    else []
  in
  Out_channel.with_open_text a.reference (fun oc ->
      List.iter (fun l -> output_string oc (l ^ "\n")) (List.sort String.compare (keep @ lines)));
  Printf.printf "wrote %d digests for %s to %s\n" (List.length lines) w.name a.reference

let () =
  let a = parse_args () in
  (* Library code that falls back to the default pool sizes it from
     SBGP_DOMAINS: pin it to the workload's width. *)
  Unix.putenv "SBGP_DOMAINS" (string_of_int a.workload.domains);
  if a.write_reference then write_reference a
  else begin
    (try Unix.mkdir a.out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    let reference = load_reference a.reference in
    let w = a.workload in
    (* The reference must be complete for the workload, whatever the seed. *)
    List.iter
      (fun j ->
        let gseed = graph_seed default_seed j in
        List.iter
          (fun row ->
            if not (Hashtbl.mem reference (w.name, gseed, row)) then
              die "%s: no reference digest for %s %s at input seed %d" a.reference w.name row gseed)
          (List.map (( ^ ) "base:") w.base @ List.map (( ^ ) "ixp:") w.ixp))
      (List.init graph_seeds Fun.id);
    let swap_domains = if a.workload.domains = 1 then max 2 nproc else 1 in
    let rows, extra = (if a.trace then traced else untraced) a ~reference ~swap_domains in
    if a.trace then
      Span.write (Filename.concat a.out_dir (Printf.sprintf "spans-%s-%d.jsonl" w.name a.seed));
    emit a ~swap_domains ~extra rows
  end
