(* Per-layer probes of the traced run.

   Each probe times calls into one layer's public functions on the
   workload's base graph and seed, from outside the library.  The
   kernel, batch, h_metric, rollout, optimize and topology probes are the
   corresponding parts of bench/main.ml pointed at that graph; each runs
   the same identity gate as its part, untimed, before it measures.  A
   gate that fails raises [Gate], which the caller counts as a failed
   attempt. *)

open Core

exception Gate of string

type input = {
  g : Graph.t;
  tiers : Tiers.t;
  seed : int;
  ctx : Experiments.Context.t;  (** fresh base context at the workload's scale *)
  pool : Parallel.Pool.t;  (** the workload's worker pool *)
  nproc : int;
  out_dir : string;
}

(* One per-layer row; [domains] is the number of domains the measured
   calls ran on. *)
type row = { name : string; value : float; unit : string; domains : int }

let row ?(domains = 1) name unit value = { name; value; unit; domains }
let gate what = function [] -> () | d :: _ -> raise (Gate (what ^ ": " ^ Check.Diagnostic.to_string d))

(* Wall time and main-domain minor words of [f ()]. *)
let measure f =
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let x = f () in
  let dt = Unix.gettimeofday () -. t0 in
  (x, dt, Gc.minor_words () -. w0)

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let k = Array.length a in
  if k = 0 then nan
  else if k mod 2 = 1 then a.(k / 2)
  else (a.((k / 2) - 1) +. a.(k / 2)) /. 2.

let kernel_policies =
  List.map Policy.make Policy.all_models
  @ [ Policy.make ~lp:(Policy.Lp_k 2) Policy.Security_third ]

let tiebreaks = [ Engine.Bounds; Engine.Lowest_next_hop ]
let reference_dep inp = Deployment.tier1_tier2 inp.g inp.tiers ~n_t1:13 ~n_t2:50

(* Scalar packed engine through a reused workspace, gated against the
   preserved reference kernel (Check.Kernel.analyze). *)
let kernel inp =
  let nn = Graph.n inp.g in
  let dep = reference_dep inp in
  let attackers = Tiers.non_stubs inp.tiers in
  let rng = Rng.create (inp.seed + 11) in
  let pairs =
    Array.init 48 (fun i ->
        let dst = Rng.int rng nn in
        if i mod 4 = 3 then (dst, None)
        else
          let m = attackers.(Rng.int rng (Array.length attackers)) in
          if m = dst then (dst, None) else (dst, Some m))
  in
  (* The gate also replays the Appendix-B specification, which costs
     about a second per pair and policy at n = 4000: gate one attacked
     and one unattacked pair, time all of them. *)
  gate "kernel identity" (snd (Check.Kernel.analyze inp.g kernel_policies dep [| pairs.(0); pairs.(3) |]));
  let ws = Engine.Workspace.create nn in
  let round () =
    List.iter
      (fun policy ->
        Array.iter
          (fun (dst, attacker) ->
            List.iter
              (fun tiebreak ->
                ignore (Engine.compute ~tiebreak ~ws inp.g policy dep ~dst ~attacker))
              tiebreaks)
          pairs)
      kernel_policies
  in
  round ();
  let runs = float_of_int (3 * Array.length pairs * List.length kernel_policies * 2) in
  let (), dt, words = measure (fun () -> round (); round (); round ()) in
  [ row "engine.pairs_per_s" "1/s" (runs /. dt); row "engine.minor_words_per_pair" "words" (words /. runs) ]

(* Destination-major batched kernel, one full attacker word per
   destination, gated by Check.Kernel.analyze_batch. *)
let batch inp =
  let nn = Graph.n inp.g in
  let dep = reference_dep inp in
  let non_stubs = Tiers.non_stubs inp.tiers in
  let rng = Rng.create (inp.seed + 13) in
  let words =
    Array.init 6 (fun _ ->
        let dst = Rng.int rng nn in
        let ms =
          Rng.sample_without_replacement rng
            (min (Batch.max_lanes + 1) (Array.length non_stubs))
            (Array.length non_stubs)
          |> Array.to_list
          |> List.filter_map (fun i -> if non_stubs.(i) = dst then None else Some non_stubs.(i))
          |> Array.of_list
        in
        (dst, Array.sub ms 0 (min Batch.max_lanes (Array.length ms))))
  in
  (* The gate decodes every lane against the scalar engine: gate two
     words, time all six. *)
  gate "batch identity" (snd (Check.Kernel.analyze_batch inp.g kernel_policies dep (Array.sub words 0 2)));
  let ws = Batch.Workspace.create nn in
  let round () =
    List.iter
      (fun policy ->
        Array.iter
          (fun (dst, attackers) ->
            List.iter
              (fun tiebreak -> ignore (Batch.compute ~tiebreak ~ws inp.g policy dep ~dst ~attackers))
              tiebreaks)
          words)
      kernel_policies
  in
  round ();
  let lanes = Array.fold_left (fun a (_, ms) -> a + Array.length ms) 0 words in
  let per_round = List.length kernel_policies * 2 in
  let pairs = float_of_int (3 * lanes * per_round) in
  let (), dt, minor = measure (fun () -> round (); round (); round ()) in
  [
    row "batch.pairs_per_s" "1/s" (pairs /. dt);
    row "batch.lanes_per_solve" "lanes" (float_of_int lanes /. float_of_int (Array.length words));
    row "batch.minor_words_per_pair" "words" (minor /. pairs);
  ]

(* Partition.count per model over one pair sample, and the two Reach
   closures per pair that the sec1 / sec2 classifications build on.
   Gate: the security-3rd batched count equals the per-pair count. *)
let partition inp =
  let nn = Graph.n inp.g in
  let non_stubs = Tiers.non_stubs inp.tiers in
  let rng = Rng.create (inp.seed + 19) in
  let pairs =
    Array.init 48 (fun _ ->
        let dst = Rng.int rng nn in
        let m = non_stubs.(Rng.int rng (Array.length non_stubs)) in
        (dst, if m = dst then non_stubs.((Rng.int rng (Array.length non_stubs))) else m))
    |> Array.to_list
    |> List.filter (fun (d, m) -> d <> m)
    |> Array.of_list
  in
  let sec3 = Policy.make Policy.Security_third in
  Array.iter
    (fun (dst, attacker) ->
      let one = Partition.count inp.g sec3 ~attacker ~dst in
      match Partition.sec3_count_batch inp.g sec3 ~dst ~attackers:[| attacker |] with
      | [| b |] when b = one -> ()
      | _ ->
          raise
            (Gate
               (Printf.sprintf "partition identity: sec3 batch <> per-pair count at (m=%d, d=%d)"
                  attacker dst)))
    pairs;
  let ws = Engine.Workspace.create nn in
  let np = float_of_int (Array.length pairs) in
  let models =
    [
      ("sec1", Policy.make Policy.Security_first);
      ("sec2", Policy.make Policy.Security_second);
      ("sec3", sec3);
      ("sec2-lp2", Policy.make ~lp:(Policy.Lp_k 2) Policy.Security_second);
    ]
  in
  let words = ref 0. in
  let rates =
    List.map
      (fun (label, policy) ->
        let (), dt, w =
          measure (fun () ->
              Array.iter (fun (dst, attacker) -> ignore (Partition.count ~ws inp.g policy ~attacker ~dst)) pairs)
        in
        words := !words +. w;
        row ("partition.pairs_per_s." ^ label) "1/s" (np /. dt))
      models
  in
  let (), dt, _ =
    measure (fun () ->
        Array.iter
          (fun (dst, attacker) ->
            ignore (Reach.compute inp.g ~root:dst ~avoid:attacker ());
            ignore (Reach.compute inp.g ~root:attacker ~avoid:dst ()))
          pairs)
  in
  rates
  @ [
      row "partition.minor_words_per_pair" "words" (!words /. (np *. float_of_int (List.length models)));
      row "reach.closures_per_s" "1/s" (2. *. np /. dt);
    ]

(* H-metric over one pair sample on a 1-domain pool and on an
   nproc-domain pool, three alternating rounds each; the two results must
   be identical. *)
let h_metric inp =
  let dep = reference_dep inp in
  let policy = Policy.make Policy.Security_third in
  let rng = Rng.create (inp.seed + 7) in
  let nn = Graph.n inp.g in
  let pick () = Rng.sample_without_replacement rng (min 33 nn) nn in
  let attackers = pick () and dsts = pick () in
  let pairs = Metric.pairs ~attackers ~dsts () in
  let one = Parallel.Pool.create ~domains:1 () in
  let wide = Parallel.Pool.create ~domains:inp.nproc () in
  Fun.protect
    ~finally:(fun () ->
      Parallel.Pool.shutdown one;
      Parallel.Pool.shutdown wide)
    (fun () ->
      let run pool = measure (fun () -> Metric.h_metric ~pool inp.g policy dep pairs) in
      let t1 = ref [] and tn = ref [] in
      for _ = 1 to 3 do
        let b1, d1, _ = run one in
        let bn, dn, _ = run wide in
        if b1 <> bn then raise (Gate "h_metric identity: pool result differs from sequential");
        t1 := d1 :: !t1;
        tn := dn :: !tn
      done;
      let t1 = median !t1 and tn = median !tn in
      [
        row "h_metric.pairs_per_s" "1/s" (float_of_int (Array.length pairs) /. t1);
        row ~domains:inp.nproc "parallel.efficiency" "ratio" (t1 /. (float_of_int inp.nproc *. tn));
      ])

(* Dynamic simulator to convergence, gated against the static engine
   under lowest-next-hop tiebreaking (the stable state of Theorem 2.1). *)
let bgpsim inp =
  let nn = Graph.n inp.g in
  let dep = reference_dep inp in
  let policy = Policy.make Policy.Security_third in
  let non_stubs = Tiers.non_stubs inp.tiers in
  let rng = Rng.create (inp.seed + 23) in
  let pairs =
    List.init 4 (fun _ -> (Rng.int rng nn, non_stubs.(Rng.int rng (Array.length non_stubs))))
    |> List.filter (fun (d, m) -> d <> m)
  in
  let (), dt, _ =
    measure (fun () ->
        List.iter
          (fun (dst, attacker) ->
            let sim = Bgpsim.create inp.g policy dep ~dst ~attacker () in
            ignore (Bgpsim.run sim);
            let dyn = Bgpsim.to_outcome sim in
            let stat =
              Engine.compute ~tiebreak:Engine.Lowest_next_hop inp.g policy dep ~dst ~attacker:(Some attacker)
            in
            for v = 0 to nn - 1 do
              let same =
                Outcome.reached dyn v = Outcome.reached stat v
                && ((not (Outcome.reached stat v)) || v = dst || v = attacker
                   || Outcome.next_hop dyn v = Outcome.next_hop stat v)
              in
              if not same then
                raise (Gate (Printf.sprintf "bgpsim identity: AS %d differs (m=%d, d=%d)" v attacker dst))
            done)
          pairs)
  in
  [ row "bgpsim.runs_per_s" "1/s" (float_of_int (List.length pairs) /. dt) ]

(* The rollout chains of Figures 7(a), 8 and 11 and the non-stub
   deployment through one Evaluator per chain and policy over a shared
   cache, each step gated against a from-scratch h_metric; plus the
   Incremental dirty-cone verdicts along the same chains. *)
let rollout inp =
  let ctx = inp.ctx and g = inp.g and tiers = inp.tiers in
  let attackers = Experiments.Util.rollout_attackers ctx ~k:30 in
  let dsts = Experiments.Context.sample ctx "rollout-dst" ctx.all (Experiments.Context.scaled ctx 45) in
  let pairs = Metric.pairs ~attackers ~dsts () in
  let t1t2 (x, y) = Deployment.tier1_tier2 g tiers ~n_t1:x ~n_t2:y in
  let chains =
    [
      List.map t1t2 [ (13, 13); (13, 37); (13, 100) ];
      List.map (fun d -> Deployment.with_cps g tiers (t1t2 d)) [ (13, 13); (13, 37); (13, 100) ];
      List.map (fun y -> Deployment.tier2_only g tiers ~n_t2:y) [ 13; 26; 50; 100 ];
      [ Deployment.non_stubs g tiers ];
    ]
  in
  let empty = Deployment.empty (Graph.n g) in
  let cache = Metric.Cache.create () in
  let stats = ref [] in
  List.iter
    (fun policy ->
      List.iter
        (fun chain ->
          let ev = Metric.Evaluator.create ~pool:inp.pool ~cache g policy pairs in
          List.iter
            (fun dep ->
              let inc = Metric.Evaluator.eval ev dep in
              let scratch = Metric.h_metric ~pool:inp.pool g policy dep pairs in
              if inc <> scratch then raise (Gate "rollout identity: incremental result differs from scratch"))
            (empty :: chain);
          stats := Metric.Evaluator.stats ev :: !stats)
        chains)
    Experiments.Context.policies;
  let clean, dirty =
    List.fold_left
      (fun acc chain ->
        fst
          (List.fold_left
             (fun ((c, d), old_dep) new_dep ->
               let c', d' = Incremental.counts (Incremental.compute g ~old_dep ~new_dep ~dsts) in
               ((c + c', d + d'), new_dep))
             (acc, empty) chain))
      (0, 0) chains
  in
  let domains = Parallel.Pool.size inp.pool in
  let tot f = float_of_int (List.fold_left (fun a s -> a + f s) 0 !stats) in
  [
    row ~domains "evaluator.computed" "count" (tot (fun s -> s.Metric.Evaluator.computed));
    row ~domains "evaluator.carried" "count" (tot (fun s -> s.Metric.Evaluator.carried));
    row ~domains "evaluator.cache_hits" "count" (tot (fun s -> s.Metric.Evaluator.cache_hits));
    row ~domains "evaluator.thm_skips" "count" (tot (fun s -> s.Metric.Evaluator.thm_skips));
    row ~domains "incremental.dirty_fraction" "ratio" (float_of_int dirty /. float_of_int (max 1 (clean + dirty)));
  ]

(* Max-k: CELF against the naive greedy on one seeded instance; the two
   pick sequences must be identical (Check.Optimize.compare_results). *)
let optimize inp =
  let g = inp.g in
  let nn = Graph.n g in
  let rng = Rng.create (inp.seed + 17) in
  let dsts = Rng.sample_without_replacement rng (min 6 nn) nn in
  let non_stubs = Tiers.non_stubs inp.tiers in
  let in_dsts v = Array.exists (( = ) v) dsts in
  let attackers =
    Rng.sample_without_replacement rng (min 12 (Array.length non_stubs)) (Array.length non_stubs)
    |> Array.to_list
    |> List.filter_map (fun i -> if in_dsts non_stubs.(i) then None else Some non_stubs.(i))
    |> Array.of_list
  in
  let attackers = Array.sub attackers 0 (min 8 (Array.length attackers)) in
  let in_attackers v = Array.exists (( = ) v) attackers in
  (* Candidates: the provider/peer rings around the destinations. *)
  let ring = Hashtbl.create 64 in
  let add v = if not (in_dsts v || in_attackers v) then Hashtbl.replace ring v () in
  let members () = Hashtbl.fold (fun v () acc -> v :: acc) ring [] in
  Array.iter
    (fun d ->
      Array.iter add (Graph.providers g d);
      Array.iter add (Graph.peers g d))
    dsts;
  List.iter (fun v -> Array.iter add (Graph.providers g v)) (members ());
  List.iter
    (fun v ->
      Array.iter add (Graph.providers g v);
      Array.iter add (Graph.peers g v))
    (members ());
  let ring_pool = members () |> List.sort compare |> Array.of_list in
  let k_cands = min 24 (Array.length ring_pool) in
  let candidates =
    Array.map (fun i -> ring_pool.(i)) (Rng.sample_without_replacement rng k_cands (Array.length ring_pool))
  in
  let pairs = Metric.pairs ~attackers ~dsts () in
  let base = Deployment.make ~n:nn ~full:[||] ~simplex:dsts () in
  let policy = Policy.make Policy.Security_first in
  let naive =
    Optimize.Max_k.greedy ~pool:inp.pool ~objective:`Lb ~base g policy ~pairs ~k:4 ~candidates
  in
  let celf =
    Optimize.Max_k.celf ~pool:inp.pool ~cache:(Metric.Cache.create ()) ~objective:`Lb ~base g policy
      ~pairs ~k:4 ~candidates
  in
  let domains = Parallel.Pool.size inp.pool in
  gate "optimize identity" (Check.Optimize.compare_results ~label:"optimize probe" naive celf);
  [ row ~domains "optimize.celf_evals" "count" (float_of_int celf.Optimize.Max_k.engine_evals) ]

(* Snapshot round trip of the base graph: the loaded CSR must be the
   generated one, bit for bit.  No rows; the setup spans of the traced
   iterations time the topology layer. *)
let topology inp =
  let path = Filename.concat inp.out_dir "probe.snap" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Serial.save_snapshot path inp.g;
      let loaded = Serial.load_snapshot path in
      let a = Graph.csr inp.g and b = Graph.csr loaded in
      let same (x : Graph.ints) (y : Graph.ints) =
        Bigarray.Array1.dim x = Bigarray.Array1.dim y
        &&
        let ok = ref true in
        for i = 0 to Bigarray.Array1.dim x - 1 do
          if x.{i} <> y.{i} then ok := false
        done;
        !ok
      in
      if
        not
          (Graph.n loaded = Graph.n inp.g
          && same a.Graph.Csr.xs b.Graph.Csr.xs
          && same a.Graph.Csr.adj b.Graph.Csr.adj)
      then raise (Gate "topology identity: snapshot CSR differs from the generated graph"));
  []

let all =
  [
    ("topology", topology);
    ("kernel", kernel);
    ("batch", batch);
    ("partition", partition);
    ("h_metric", h_metric);
    ("bgpsim", bgpsim);
    ("rollout", rollout);
    ("optimize", optimize);
  ]
