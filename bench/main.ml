(* Benchmark harness.

   Part 1 regenerates every table and figure of the paper's evaluation
   (one experiment per table/figure; see lib/experiments and DESIGN.md's
   experiment index), printing the same rows/series the paper reports —
   first on the base synthetic graph, then the Appendix J robustness
   subset on the IXP-augmented graph.

   Part 2 runs Bechamel micro-benchmarks of the core algorithms.

   Part 3 times the H-metric evaluation sequentially and on the worker
   pool over the same pair sample and checks the results are identical.

   Environment knobs: SBGP_BENCH_N (graph size, default 4000),
   SBGP_SCALE (sample-size multiplier, default 1.0),
   SBGP_SEED (default 42), SBGP_DOMAINS (worker domains),
   SBGP_BENCH_MICRO_N (micro-benchmark graph size, default 1500),
   SBGP_BENCH_QUOTA (seconds of sampling per micro-benchmark, default
   0.8), SBGP_BENCH_PAIRS (pair count for the H-metric comparison,
   default 256).

   Part 4 times the full rollout-experiment workload (Figures 7(a),
   7(b), 8, 11 and the non-stub deployment, three security models each)
   from scratch — one full H-metric evaluation per policy, step and
   variant, as the experiment used to run — against the incremental
   machinery (dirty-cone evaluators, the shared normalized cache, clean
   per-destination carries) and checks both are bit-identical.

   Part 5 is the per-pair kernel microbenchmark: the packed CSR engine
   against the preserved pre-change kernel (Routing.Reference) on the
   same (destination, attacker) pairs — an identity gate first, then
   pairs/second and minor-heap words per pair for both sides.

   Part 6 is the destination-major batched kernel benchmark: whole
   attacker words (up to 63 lanes) per destination solve through
   Routing.Batch, against the scalar packed engine sweeping the same
   lanes one pair at a time — an analyze_batch identity gate first
   (timed separately as gate_s, outside the measured window), then
   pairs/second and minor-heap words per pair for both sides.

   Part 7 is the Max-k optimizer benchmark: the CELF lazy greedy
   (lib/optimize, DESIGN.md §14) against the naive full-re-eval greedy
   on one seeded instance — the Check.Optimize identity gate first
   (CELF must emit the bit-identical pick sequence), then
   seconds-per-greedy-step and engine-evaluations-per-step for both
   sides.

   Part 8 is the topology layer (PR 9): binary snapshot load against
   Topogen regeneration (with a CSR bit-identity gate), then a
   link-flip delta replay through Metric.Replay against from-scratch
   re-evaluation at every step (bit-identity gated), reporting wall
   time and engine-evaluation counts for both sides.

   Environment knobs (additional): SBGP_BENCH_ONLY — comma-separated
   subset of the parts "experiments", "micro", "h_metric", "rollout",
   "kernel", "batch", "optimize", "topology" to run (default: all);
   SBGP_BENCH_KERNEL_PAIRS (pair count for the kernel part, default 48)
   and SBGP_BENCH_KERNEL_REPS (alternating measurement rounds per side,
   default 3); SBGP_BENCH_BATCH_DSTS (destination solves for the batch
   part, default 6) and SBGP_BENCH_BATCH_REPS (rounds per side,
   default 3); SBGP_BENCH_OPT_CANDS (candidate-set size for the
   optimizer part, default 48) and SBGP_BENCH_OPT_K (picks requested,
   default 6); SBGP_BENCH_TOPO_DSTS / SBGP_BENCH_TOPO_STEPS /
   SBGP_BENCH_TOPO_FLIPS (destination words, delta steps, link flaps per
   step for the topology part; defaults 6 / 10 / 3) and
   SBGP_BENCH_LOAD_REPS (snapshot load repetitions, default 5).  An
   unset or empty knob takes its default; a value that does not parse
   stops the run with exit code 2, naming the variable and the value.

   With --json on the command line (or SBGP_BENCH_JSON=1), all timings
   are additionally written to BENCH_<label>.json, where <label> comes
   from SBGP_BENCH_LABEL (default "default") — one flat document per
   run, meant for diffing across commits; only the parts that ran are
   present. *)

(* Numeric knobs: an unset or empty variable takes the default; any
   other value must parse, or the harness stops (exit 2) naming the
   variable and the value rather than silently running the default. *)
let env_parse name default ~what parse =
  match Sys.getenv_opt name with
  | None | Some "" -> default
  | Some s -> (
      match parse (String.trim s) with
      | Some v -> v
      | None ->
          Printf.eprintf "bench: %s=%S is not %s\n%!" name s what;
          exit 2)

let env_int name default =
  env_parse name default ~what:"an integer" int_of_string_opt

let env_float name default =
  env_parse name default ~what:"a finite number" (fun s ->
      match float_of_string_opt s with
      | Some v when Float.is_finite v -> Some v
      | Some _ | None -> None)

let part name =
  match Sys.getenv_opt "SBGP_BENCH_ONLY" with
  | None | Some "" -> true
  | Some s ->
      List.exists
        (fun p -> String.equal (String.trim p) name)
        (String.split_on_char ',' s)

let run_experiments () =
  let n = env_int "SBGP_BENCH_N" 4000 in
  let seed = env_int "SBGP_SEED" 42 in
  let scale = env_float "SBGP_SCALE" 1.0 in
  let timings = ref [] in
  let ctx = Core.Experiments.Context.make ~n ~seed ~scale () in
  Printf.printf "#### Experiment harness: %s ####\n\n%!"
    (Core.Experiments.Context.describe ctx);
  List.iter
    (fun e ->
      let t0 = Unix.gettimeofday () in
      print_string (e.Core.Experiments.Registry.run ctx);
      let dt = Unix.gettimeofday () -. t0 in
      timings := (e.Core.Experiments.Registry.id, dt) :: !timings;
      Printf.printf "[%s: %.1fs]\n\n%!" e.Core.Experiments.Registry.id dt)
    Core.Experiments.Registry.all;
  (* Appendix J: robustness of the headline results on the IXP-augmented
     graph. *)
  let ixp = Core.Experiments.Context.make ~n ~seed ~ixp:true ~scale () in
  Printf.printf "#### Appendix J robustness: %s ####\n\n%!"
    (Core.Experiments.Context.describe ixp);
  List.iter
    (fun id ->
      match Core.Experiments.Registry.find id with
      | Some e ->
          let t0 = Unix.gettimeofday () in
          print_string (e.Core.Experiments.Registry.run ixp);
          let dt = Unix.gettimeofday () -. t0 in
          timings := ("ixp:" ^ id, dt) :: !timings;
          Printf.printf "[%s (ixp): %.1fs]\n\n%!" id dt
      | None -> assert false)
    [ "baseline"; "partitions"; "partitions-tier"; "lpk" ];
  List.rev !timings

(* Micro-benchmarks of the core algorithms. *)

open Bechamel
open Toolkit

let micro_tests () =
  let n_micro = env_int "SBGP_BENCH_MICRO_N" 1500 in
  let result =
    Core.Topogen.generate
      ~params:(Core.Topogen.default_params ~n:n_micro)
      (Core.Rng.create 1)
  in
  let g = result.Core.Topogen.graph in
  let n = Core.Graph.n g in
  let tiers = Core.Topogen.tiers result in
  let dep = Core.Deployment.tier1_tier2 g tiers ~n_t1:13 ~n_t2:50 in
  let empty = Core.Deployment.empty n in
  let dst = result.Core.Topogen.cps.(0) in
  let attacker = (Core.Tiers.non_stubs tiers).(0) in
  let attacker = if attacker = dst then 1 else attacker in
  let policy m = Core.Policy.make m in
  let engine p dep () =
    ignore (Core.Engine.compute g p dep ~dst ~attacker:(Some attacker))
  in
  (* Same computation through a reused workspace: the delta against the
     plain engine rows is the allocation/zeroing cost saved per pair. *)
  let ws = Core.Engine.Workspace.create n in
  let engine_ws p dep () =
    ignore (Core.Engine.compute ~ws g p dep ~dst ~attacker:(Some attacker))
  in
  (* The staged reference algorithm and the dynamic simulator are
     quadratic-ish; bench them on a small graph. *)
  let n_small = min 200 n_micro in
  let small =
    (Core.Topogen.generate
       ~params:(Core.Topogen.default_params ~n:n_small)
       (Core.Rng.create 2))
      .Core.Topogen.graph
  in
  let small_dep = Core.Deployment.empty n_small in
  let sec3 = policy Core.Policy.Security_third in
  let nm label = Printf.sprintf "%s (n=%d)" label n_micro in
  Test.make_grouped ~name:"sbgp"
    [
      Test.make ~name:(nm "engine/sec1")
        (Staged.stage (engine (policy Core.Policy.Security_first) dep));
      Test.make ~name:(nm "engine/sec2")
        (Staged.stage (engine (policy Core.Policy.Security_second) dep));
      Test.make ~name:(nm "engine/sec3")
        (Staged.stage (engine (policy Core.Policy.Security_third) dep));
      Test.make ~name:(nm "engine/sec3+ws")
        (Staged.stage (engine_ws (policy Core.Policy.Security_third) dep));
      Test.make ~name:(nm "engine/sec3-lp2")
        (Staged.stage
           (engine
              (Core.Policy.make ~lp:(Core.Policy.Lp_k 2)
                 Core.Policy.Security_third)
              dep));
      Test.make ~name:(nm "engine/baseline")
        (Staged.stage (engine sec3 empty));
      Test.make ~name:(nm "engine/baseline+ws")
        (Staged.stage (engine_ws sec3 empty));
      Test.make ~name:(nm "partition/sec2")
        (Staged.stage (fun () ->
             ignore
               (Core.Partition.count g
                  (policy Core.Policy.Security_second)
                  ~attacker ~dst)));
      Test.make ~name:(nm "partition/sec2+ws")
        (Staged.stage (fun () ->
             ignore
               (Core.Partition.count ~ws g
                  (policy Core.Policy.Security_second)
                  ~attacker ~dst)));
      Test.make ~name:(nm "partition/sec1")
        (Staged.stage (fun () ->
             ignore
               (Core.Partition.count g
                  (policy Core.Policy.Security_first)
                  ~attacker ~dst)));
      Test.make
        ~name:(Printf.sprintf "staged-reference (n=%d)" n_small)
        (Staged.stage (fun () ->
             ignore
               (Core.Staged.compute small sec3 small_dep ~dst:0
                  ~attacker:(Some 1))));
      Test.make
        ~name:(Printf.sprintf "bgpsim-converge (n=%d)" n_small)
        (Staged.stage (fun () ->
             let sim =
               Core.Bgpsim.create small sec3 small_dep ~dst:0 ~attacker:1 ()
             in
             ignore (Core.Bgpsim.run sim)));
      Test.make ~name:(nm "topogen")
        (Staged.stage (fun () ->
             ignore
               (Core.Topogen.generate
                  ~params:(Core.Topogen.default_params ~n:n_micro)
                  (Core.Rng.create 3))));
    ]

let run_micro () =
  print_endline "#### Bechamel micro-benchmarks ####\n";
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let quota = env_float "SBGP_BENCH_QUOTA" 0.8 in
  let cfg =
    Benchmark.cfg ~limit:1000 ~quota:(Time.second quota) ~kde:None ()
  in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] (micro_tests ()) in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) results [] in
  let rows = List.sort compare rows in
  let out =
    List.map
      (fun (name, est) ->
        let per_run =
          match Analyze.OLS.estimates est with Some (t :: _) -> t | _ -> nan
        in
        Printf.printf "  %-32s %12.1f ns/run  (r2=%s)\n" name per_run
          (match Analyze.OLS.r_square est with
          | Some r -> Printf.sprintf "%.3f" r
          | None -> "-");
        (name, per_run))
      rows
  in
  print_newline ();
  out

(* Sequential vs pooled H-metric over the same sample, plus the
   determinism check that both give identical bounds. *)
let run_h_metric_comparison () =
  let target_pairs = max 4 (env_int "SBGP_BENCH_PAIRS" 256) in
  let n = env_int "SBGP_BENCH_N" 4000 in
  let seed = env_int "SBGP_SEED" 42 in
  let result =
    Core.Topogen.generate
      ~params:(Core.Topogen.default_params ~n)
      (Core.Rng.create seed)
  in
  let g = result.Core.Topogen.graph in
  let tiers = Core.Topogen.tiers result in
  let dep = Core.Deployment.tier1_tier2 g tiers ~n_t1:13 ~n_t2:50 in
  let policy = Core.Policy.make Core.Policy.Security_third in
  let rng = Core.Rng.create (seed + 7) in
  let k = int_of_float (ceil (sqrt (float_of_int target_pairs))) + 1 in
  let pick () =
    let n = Core.Graph.n g in
    Core.Rng.sample_without_replacement rng (min k n) n
  in
  let attackers = pick () and dsts = pick () in
  let pairs = Core.Metric.pairs ~attackers ~dsts () in
  let time f =
    let t0 = Unix.gettimeofday () in
    let x = f () in
    (x, Unix.gettimeofday () -. t0)
  in
  let seq, seq_s = time (fun () -> Core.Metric.h_metric g policy dep pairs) in
  let domains = max 2 (Core.Parallel.default_domains ()) in
  let pool = Core.Parallel.Pool.create ~domains () in
  let par, pool_s =
    Fun.protect
      ~finally:(fun () -> Core.Parallel.Pool.shutdown pool)
      (fun () -> time (fun () -> Core.Metric.h_metric ~pool g policy dep pairs))
  in
  let identical = seq = par in
  Printf.printf
    "#### H-metric: %d pairs, sequential %.3fs vs pool(%d domains) %.3fs \
     (x%.2f), identical=%b ####\n\n\
     %!"
    (Array.length pairs) seq_s domains pool_s (seq_s /. pool_s) identical;
  if not identical then failwith "h_metric: pool result differs from sequential";
  [
    ("pairs", float_of_int (Array.length pairs));
    ("domains", float_of_int domains);
    ("seq_s", seq_s);
    ("pool_s", pool_s);
    ("speedup", seq_s /. pool_s);
    ("identical", if identical then 1. else 0.);
  ]

(* The Section-5.2 rollout-family workload — the Figure 7(a) Tier 1+2
   chain (with its simplex-stub "error bar" variant and the Figure 7(b)
   per-secure-destination columns), the Figure 8 CP chain, the Figure 11
   Tier-2-only chain, the Section 5.2.4 non-stub deployment, and the
   per-destination experiment's Figure 9/10/12 scenarios, each under all
   three security models — evaluated the way the experiments used to (a
   full H-metric pass per policy, step and variant, fresh
   empty-deployment baselines per variant, per-destination columns and
   H(S) means recomputed from scratch), and then through the incremental
   machinery (dirty-cone evaluators, the shared normalized cache, clean
   per-destination carries, and cross-experiment cache reuse via the
   family-shared samples).  Both sides share the same seeded samples and
   must agree bit-for-bit on every reported number; the interesting
   figure is the wall-clock ratio. *)
let run_rollout_bench () =
  let n = env_int "SBGP_BENCH_N" 4000 in
  let seed = env_int "SBGP_SEED" 42 in
  let scale = env_float "SBGP_SCALE" 1.0 in
  let ctx = Core.Experiments.Context.make ~n ~seed ~scale () in
  let g = ctx.Core.Experiments.Context.graph in
  let tiers = ctx.Core.Experiments.Context.tiers in
  let scaled = Core.Experiments.Context.scaled ctx in
  let attackers = Core.Experiments.Util.rollout_attackers ctx ~k:30 in
  let dsts_all =
    Core.Experiments.Context.sample ctx "rollout-dst"
      ctx.Core.Experiments.Context.all (scaled 45)
  in
  let pairs_all = Core.Metric.pairs ~attackers ~dsts:dsts_all () in
  let pairs_cps =
    Core.Metric.pairs ~attackers ~dsts:ctx.Core.Experiments.Context.cps ()
  in
  let t1t2 ?stub_mode ~with_cps (x, y) =
    let d = Core.Deployment.tier1_tier2 ?stub_mode g tiers ~n_t1:x ~n_t2:y in
    if with_cps then Core.Deployment.with_cps g tiers d else d
  in
  let sd_sample dep = Core.Experiments.Util.secure_dsts ctx dep ~k:50 in
  let step lbl ?simplex dep = (lbl, dep, simplex, sd_sample dep) in
  let t1t2_points = [ (13, 13); (13, 37); (13, 100) ] in
  let variants =
    [
      ( "fig7a",
        pairs_all,
        List.map
          (fun (x, y) ->
            step
              (Printf.sprintf "T1=%d,T2=%d" x y)
              ~simplex:
                (t1t2 ~stub_mode:Core.Deployment.Simplex ~with_cps:false (x, y))
              (t1t2 ~with_cps:false (x, y)))
          t1t2_points );
      ( "fig8",
        pairs_cps,
        List.map
          (fun (x, y) ->
            step (Printf.sprintf "T1=%d,T2=%d,CP" x y) (t1t2 ~with_cps:true (x, y)))
          t1t2_points );
      ( "fig11",
        pairs_all,
        List.map
          (fun y ->
            step
              (Printf.sprintf "T2=%d" y)
              (Core.Deployment.tier2_only g tiers ~n_t2:y))
          [ 13; 26; 50; 100 ] );
      ( "nonstubs",
        pairs_all,
        [ step "non-stubs" (Core.Deployment.non_stubs g tiers) ] );
    ]
  in
  (* The per-destination experiment (Figures 9, 10, 12) rides along: its
     scenarios are rollout endpoints — Figure 9 is the Figure 7(a)
     chain's last step — and the family-shared samples (Util) make its
     pair sets supersets of the rollout's per-destination columns, so on
     the incremental side much of its work is served by the cache the
     rollout variants just filled. *)
  let pd_attackers = Core.Experiments.Util.rollout_attackers ctx ~k:20 in
  let pd_scenarios =
    List.map
      (fun (tag, dep) ->
        (tag, dep, Core.Experiments.Util.secure_dsts ctx dep ~k:120))
      [
        ("fig9", t1t2 ~with_cps:false (13, 100));
        ("fig10", Core.Deployment.tier2_only g tiers ~n_t2:100);
        ("fig12", Core.Deployment.non_stubs g tiers);
      ]
  in
  let empty = Core.Deployment.empty (Core.Graph.n g) in
  let policies = Core.Experiments.Context.policies in
  let pool = Core.Experiments.Context.pool ctx in
  let pname = Core.Policy.name in
  let per_dst_avg deltas =
    let avg f = Core.Stats.mean (Array.map (fun (_, b) -> f b) deltas) in
    {
      Core.Metric.lb = avg (fun b -> b.Core.Metric.lb);
      ub = avg (fun b -> b.Core.Metric.ub);
    }
  in
  let mean_bounds (bs : Core.Metric.bounds array) =
    {
      Core.Metric.lb =
        Core.Stats.mean (Array.map (fun b -> b.Core.Metric.lb) bs);
      ub = Core.Stats.mean (Array.map (fun b -> b.Core.Metric.ub) bs);
    }
  in
  (* The per-destination experiment's work for one scenario and policy:
     the Figure 9/10/12 delta column plus the true-protection H(S) mean
     (which the old code recomputed even though the delta pass had just
     evaluated the identical pairs). *)
  let pd_rows ?cache (tag, dep, pd_dsts) policy =
    let row = Printf.sprintf "pd/%s/%s" tag (pname policy) in
    let deltas =
      Core.Experiments.Util.per_destination_changes ~pool ?cache g policy dep
        ~attackers:pd_attackers ~dsts:pd_dsts
    in
    let hs =
      Core.Parallel.map ~pool
        (fun dst ->
          Core.Metric.h_metric_per_dst ?cache g policy dep
            ~attackers:pd_attackers ~dst)
        pd_dsts
    in
    [ (row ^ "/dh", per_dst_avg deltas); (row ^ "/h", mean_bounds hs) ]
  in
  let time f =
    let t0 = Unix.gettimeofday () in
    let x = f () in
    (x, Unix.gettimeofday () -. t0)
  in
  (* Engine evaluations the scratch strategy performs, counted exactly. *)
  let cross atts ds =
    Array.fold_left
      (fun acc d ->
        acc
        + Array.fold_left (fun a m -> if m <> d then a + 1 else a) 0 atts)
      0 ds
  in
  let scratch_evals =
    List.fold_left
      (fun acc (_, pairs, steps) ->
        let full_passes =
          List.fold_left
            (fun a (_, _, simplex, _) ->
              a + 1 + match simplex with Some _ -> 1 | None -> 0)
            1 (* the per-variant empty baseline *) steps
        in
        let perdst =
          List.fold_left
            (fun a (_, _, _, sd) -> a + (2 * cross attackers sd))
            0 steps
        in
        acc + (3 * ((full_passes * Array.length pairs) + perdst)))
      0 variants
  in
  (* Per-destination experiment, from scratch: per scenario and policy,
     the delta pass evaluates every (m, d) pair at S and at {} (2x) and
     the H(S) mean re-evaluates the deployment side again (1x). *)
  let scratch_evals =
    scratch_evals
    + List.fold_left
        (fun acc (_, _, pd_dsts) -> acc + (3 * 3 * cross pd_attackers pd_dsts))
        0 pd_scenarios
  in
  (* Both sides emit the same labeled values in the same order; the
     comparison below is on raw floats, not formatted cells. *)
  let scratch, scratch_s =
    time (fun () ->
        (* Bind the rollout part first: [a @ b] evaluates [b] before [a],
           and the incremental side depends on the rollout running first
           to fill the cache — keep the scratch side's order identical. *)
        let rollout =
          List.concat_map
            (fun (tag, pairs, steps) ->
            List.concat_map
              (fun policy ->
                let h dep = Core.Metric.h_metric ~pool g policy dep pairs in
                let baseline = h empty in
                (Printf.sprintf "%s/baseline/%s" tag (pname policy), baseline)
                :: List.concat_map
                     (fun (lbl, dep, simplex, sd) ->
                       let row = Printf.sprintf "%s/%s/%s" tag lbl (pname policy) in
                       ((row ^ "/h", h dep)
                       ::
                       (match simplex with
                       | Some sdep -> [ (row ^ "/simplex", h sdep) ]
                       | None -> []))
                       @
                       if Array.length sd = 0 then []
                       else
                         [
                           ( row ^ "/perdst",
                             per_dst_avg
                               (Core.Experiments.Util.per_destination_changes
                                  ~pool g policy dep ~attackers ~dsts:sd) );
                         ])
                     steps)
              policies)
            variants
        in
        let perdst =
          List.concat_map
            (fun sc ->
              List.concat_map (fun policy -> pd_rows sc policy) policies)
            pd_scenarios
        in
        rollout @ perdst)
  in
  let cache = Core.Metric.Cache.create () in
  let carried_perdst = ref 0 in
  let ev_stats = ref [] in
  let inc, inc_s =
    time (fun () ->
        let rollout =
          List.concat_map
            (fun (tag, pairs, steps) ->
            let lanes =
              List.map
                (fun policy ->
                  let base_ev =
                    Core.Metric.Evaluator.create ~pool ~cache g policy pairs
                  in
                  let baseline = Core.Metric.Evaluator.eval base_ev empty in
                  let simplex_ev =
                    lazy
                      (let ev =
                         Core.Metric.Evaluator.create ~pool ~cache g policy
                           pairs
                       in
                       ignore (Core.Metric.Evaluator.eval ev empty);
                       ev)
                  in
                  (policy, base_ev, simplex_ev, baseline))
                policies
            in
            let sd_prev = ref None in
            let rows =
              List.concat_map
                (fun (lbl, dep, simplex, sd) ->
                  (match !sd_prev with
                  | Some (old_dep, old_dsts) when Array.length sd > 0 ->
                      let keep = Hashtbl.create 64 in
                      Array.iter (fun d -> Hashtbl.replace keep d ()) old_dsts;
                      let retained =
                        Array.to_list sd
                        |> List.filter (Hashtbl.mem keep)
                        |> Array.of_list
                      in
                      if Array.length retained > 0 then begin
                        let cone =
                          Core.Incremental.compute g ~old_dep ~new_dep:dep
                            ~dsts:retained
                        in
                        List.iter
                          (fun (policy, _, _, _) ->
                            carried_perdst :=
                              !carried_perdst
                              + Core.Metric.Cache.carry cache policy g cone
                                  ~old_dep ~new_dep:dep ~attackers
                                  ~dsts:retained)
                          lanes
                      end
                  | _ -> ());
                  if Array.length sd > 0 then sd_prev := Some (dep, sd);
                  List.concat_map
                    (fun (policy, base_ev, simplex_ev, _) ->
                      let row = Printf.sprintf "%s/%s/%s" tag lbl (pname policy) in
                      ((row ^ "/h", Core.Metric.Evaluator.eval base_ev dep)
                      ::
                      (match simplex with
                      | Some sdep ->
                          [
                            ( row ^ "/simplex",
                              Core.Metric.Evaluator.eval
                                (Lazy.force simplex_ev) sdep );
                          ]
                      | None -> []))
                      @
                      if Array.length sd = 0 then []
                      else
                        [
                          ( row ^ "/perdst",
                            per_dst_avg
                              (Core.Experiments.Util.per_destination_changes
                                 ~pool ~cache g policy dep ~attackers ~dsts:sd)
                          );
                        ])
                    lanes)
                steps
            in
            let baselines =
              List.map
                (fun (policy, base_ev, simplex_ev, baseline) ->
                  ev_stats := Core.Metric.Evaluator.stats base_ev :: !ev_stats;
                  if Lazy.is_val simplex_ev then
                    ev_stats :=
                      Core.Metric.Evaluator.stats (Lazy.force simplex_ev)
                      :: !ev_stats;
                  (Printf.sprintf "%s/baseline/%s" tag (pname policy), baseline))
                lanes
            in
            baselines @ rows)
            variants
        in
        (* After the rollouts: the shared cache now holds the rollout
           family's per-pair bounds, so these passes are mostly hits. *)
        let perdst =
          List.concat_map
            (fun sc ->
              List.concat_map (fun policy -> pd_rows ~cache sc policy) policies)
            pd_scenarios
        in
        rollout @ perdst)
  in
  let identical =
    List.length scratch = List.length inc
    && List.for_all2
         (fun (l0, (b0 : Core.Metric.bounds)) (l1, b1) ->
           String.equal l0 l1 && b0 = b1)
         (List.sort compare scratch) (List.sort compare inc)
  in
  if not identical then
    failwith "rollout bench: incremental result differs from scratch";
  let tot f = List.fold_left (fun acc s -> acc + f s) 0 !ev_stats in
  let computed = tot (fun s -> s.Core.Metric.Evaluator.computed) in
  let carried = tot (fun s -> s.Core.Metric.Evaluator.carried) in
  let cache_hits = tot (fun s -> s.Core.Metric.Evaluator.cache_hits) in
  let thm_skips = tot (fun s -> s.Core.Metric.Evaluator.thm_skips) in
  (* Every engine evaluation on the incremental side is a cache miss
     (evaluator recomputes go through a [find] first, and the
     per-destination passes run through [h_metric ~cache]). *)
  let inc_evals = Core.Metric.Cache.misses cache in
  Printf.printf
    "#### Rollout suite (figs 7a/7b/8/9/10/11/12 + non-stubs): scratch %.3fs \
     (%d engine evals) vs incremental %.3fs (%d engine evals), x%.2f, \
     identical=%b ####\n\
     \     evaluator pairs: %d computed, %d carried, %d cache hits, %d \
     theorem skips; %d per-dst entries carried\n\n\
     %!"
    scratch_s scratch_evals inc_s inc_evals (scratch_s /. inc_s) identical
    computed carried cache_hits thm_skips !carried_perdst;
  [
    ("pairs_all", float_of_int (Array.length pairs_all));
    ("pairs_cps", float_of_int (Array.length pairs_cps));
    ("scratch_s", scratch_s);
    ("scratch_evals", float_of_int scratch_evals);
    ("incremental_s", inc_s);
    ("incremental_evals", float_of_int inc_evals);
    ("speedup", scratch_s /. inc_s);
    ("computed", float_of_int computed);
    ("carried", float_of_int carried);
    ("cache_hits", float_of_int cache_hits);
    ("thm_skips", float_of_int thm_skips);
    ("perdst_carried", float_of_int !carried_perdst);
    ("identical", if identical then 1. else 0.);
  ]

(* Per-pair kernel microbenchmark: packed CSR engine vs the pre-change
   kernel, both through reused workspaces (plus the packed engine with
   fresh buffers, to price the workspace).  The identity gate runs
   first — timing a kernel that diverges would be meaningless — and the
   sides alternate round-robin so drift hits both equally. *)
let run_kernel_bench () =
  let n = env_int "SBGP_BENCH_N" 4000 in
  let seed = env_int "SBGP_SEED" 42 in
  let k = max 2 (env_int "SBGP_BENCH_KERNEL_PAIRS" 48) in
  let reps = max 1 (env_int "SBGP_BENCH_KERNEL_REPS" 3) in
  let result =
    Core.Topogen.generate
      ~params:(Core.Topogen.default_params ~n)
      (Core.Rng.create seed)
  in
  let g = result.Core.Topogen.graph in
  let nn = Core.Graph.n g in
  let tiers = Core.Topogen.tiers result in
  let dep = Core.Deployment.tier1_tier2 g tiers ~n_t1:13 ~n_t2:50 in
  let attackers = Core.Tiers.non_stubs tiers in
  let rng = Core.Rng.create (seed + 11) in
  let pairs =
    Array.init k (fun i ->
        let dst = Core.Rng.int rng nn in
        if i mod 4 = 3 then (dst, None)
        else
          let m = attackers.(Core.Rng.int rng (Array.length attackers)) in
          if m = dst then (dst, None) else (dst, Some m))
  in
  let policies =
    List.map Core.Policy.make Core.Policy.all_models
    @ [ Core.Policy.make ~lp:(Core.Policy.Lp_k 2) Core.Policy.Security_third ]
  in
  (* The gate is timed on its own: its reference solves used to land
     inside the part's wall clock, muddying cross-commit comparisons of
     the measured throughput — gate_s keeps them apart. *)
  let gate_t0 = Unix.gettimeofday () in
  (match Core.Check.Kernel.analyze g policies dep pairs with
  | _, [] -> ()
  | _, d :: _ ->
      failwith
        ("kernel bench: identity gate failed: "
        ^ Core.Check.Diagnostic.to_string d));
  let gate_s = Unix.gettimeofday () -. gate_t0 in
  let tiebreaks = [ Core.Engine.Bounds; Core.Engine.Lowest_next_hop ] in
  let runs_per_round = Array.length pairs * List.length policies * 2 in
  let round f =
    let q0 = Gc.quick_stat () in
    let t0 = Unix.gettimeofday () in
    List.iter
      (fun policy ->
        Array.iter
          (fun (dst, attacker) ->
            List.iter (fun tiebreak -> f ~tiebreak policy ~dst ~attacker)
              tiebreaks)
          pairs)
      policies;
    let dt = Unix.gettimeofday () -. t0 in
    let q1 = Gc.quick_stat () in
    ( dt,
      q1.Gc.minor_words -. q0.Gc.minor_words,
      q1.Gc.promoted_words -. q0.Gc.promoted_words,
      float_of_int (q1.Gc.major_collections - q0.Gc.major_collections) )
  in
  let ews = Core.Engine.Workspace.create nn in
  let rws = Core.Reference.Workspace.create nn in
  let packed ~tiebreak policy ~dst ~attacker =
    ignore (Core.Engine.compute ~tiebreak ~ws:ews g policy dep ~dst ~attacker)
  in
  let packed_fresh ~tiebreak policy ~dst ~attacker =
    ignore (Core.Engine.compute ~tiebreak g policy dep ~dst ~attacker)
  in
  let reference ~tiebreak policy ~dst ~attacker =
    ignore
      (Core.Reference.compute ~tiebreak ~ws:rws g policy dep ~dst ~attacker)
  in
  (* One untimed warmup round per side (page in the CSR view, size the
     workspaces), then [reps] timed rounds each, interleaved. *)
  ignore (round packed);
  ignore (round packed_fresh);
  ignore (round reference);
  let sides = [| (packed, ref []); (packed_fresh, ref []); (reference, ref []) |] in
  for _ = 1 to reps do
    Array.iter (fun (f, acc) -> acc := round f :: !acc) sides
  done;
  let total acc f = List.fold_left (fun s x -> s +. f x) 0. !acc in
  let stats (_, acc) =
    let s = total acc (fun (t, _, _, _) -> t) in
    let words = total acc (fun (_, w, _, _) -> w) in
    let promoted = total acc (fun (_, _, p, _) -> p) in
    let majors = total acc (fun (_, _, _, m) -> m) in
    let runs = float_of_int (runs_per_round * reps) in
    (runs /. s, words /. runs, promoted /. runs, majors /. runs)
  in
  let eng_rate, eng_words, eng_prom, eng_maj = stats sides.(0) in
  let fresh_rate, fresh_words, fresh_prom, fresh_maj = stats sides.(1) in
  let ref_rate, ref_words, ref_prom, ref_maj = stats sides.(2) in
  let speedup = eng_rate /. ref_rate in
  Printf.printf
    "#### Kernel (n=%d, %d pairs x %d policies x 2 tiebreaks x %d reps) ####\n\
    \     packed+ws   %10.1f pairs/s  %10.0f minor words/pair  %8.1f \
     promoted/pair\n\
    \     packed      %10.1f pairs/s  %10.0f minor words/pair  %8.1f \
     promoted/pair\n\
    \     reference   %10.1f pairs/s  %10.0f minor words/pair  %8.1f \
     promoted/pair\n\
    \     speedup (packed+ws vs reference): x%.2f; identity gate %.3fs \
     (untimed)\n\n\
     %!"
    n k (List.length policies) reps eng_rate eng_words eng_prom fresh_rate
    fresh_words fresh_prom ref_rate ref_words ref_prom speedup gate_s;
  [
    ("pairs", float_of_int (Array.length pairs));
    ("runs", float_of_int (runs_per_round * reps));
    ("engine_pairs_per_s", eng_rate);
    ("engine_fresh_pairs_per_s", fresh_rate);
    ("reference_pairs_per_s", ref_rate);
    ("engine_minor_words_per_pair", eng_words);
    ("engine_fresh_minor_words_per_pair", fresh_words);
    ("reference_minor_words_per_pair", ref_words);
    ("engine_promoted_words_per_pair", eng_prom);
    ("engine_fresh_promoted_words_per_pair", fresh_prom);
    ("reference_promoted_words_per_pair", ref_prom);
    ("engine_major_collections_per_pair", eng_maj);
    ("engine_fresh_major_collections_per_pair", fresh_maj);
    ("reference_major_collections_per_pair", ref_maj);
    ("speedup", speedup);
    ("gate_s", gate_s);
    ("identity_gate", 1.);
  ]

(* Destination-major batched kernel benchmark: whole attacker words (up
   to 63 lanes) per solve through Routing.Batch, against the scalar
   packed engine sweeping the same lanes pair by pair — the
   corrected-harness re-measurement of the BENCH_pr4 baseline row.  The
   analyze_batch identity gate runs first and is timed on its own
   (gate_s), outside the measured window; rounds alternate sides so
   drift hits both equally. *)
let run_batch_bench () =
  let n = env_int "SBGP_BENCH_N" 4000 in
  let seed = env_int "SBGP_SEED" 42 in
  let dsts_k = max 1 (env_int "SBGP_BENCH_BATCH_DSTS" 6) in
  let reps = max 1 (env_int "SBGP_BENCH_BATCH_REPS" 3) in
  let result =
    Core.Topogen.generate
      ~params:(Core.Topogen.default_params ~n)
      (Core.Rng.create seed)
  in
  let g = result.Core.Topogen.graph in
  let nn = Core.Graph.n g in
  let tiers = Core.Topogen.tiers result in
  let dep = Core.Deployment.tier1_tier2 g tiers ~n_t1:13 ~n_t2:50 in
  let pool = Core.Tiers.non_stubs tiers in
  let rng = Core.Rng.create (seed + 13) in
  (* One full attacker word per destination: distinct non-stub
     attackers, the destination itself excluded. *)
  let batches =
    Array.init dsts_k (fun _ ->
        let dst = Core.Rng.int rng nn in
        let idxs =
          Core.Rng.sample_without_replacement rng
            (min (Core.Batch.max_lanes + 1) (Array.length pool))
            (Array.length pool)
        in
        let ms =
          Array.to_list idxs
          |> List.filter_map (fun i ->
                 if pool.(i) = dst then None else Some pool.(i))
          |> Array.of_list
        in
        (dst, Array.sub ms 0 (min Core.Batch.max_lanes (Array.length ms))))
  in
  let lanes_total =
    Array.fold_left (fun a (_, ms) -> a + Array.length ms) 0 batches
  in
  let policies =
    List.map Core.Policy.make Core.Policy.all_models
    @ [ Core.Policy.make ~lp:(Core.Policy.Lp_k 2) Core.Policy.Security_third ]
  in
  let gate_t0 = Unix.gettimeofday () in
  (match Core.Check.Kernel.analyze_batch g policies dep batches with
  | _, [] -> ()
  | _, d :: _ ->
      failwith
        ("batch bench: identity gate failed: "
        ^ Core.Check.Diagnostic.to_string d));
  let gate_s = Unix.gettimeofday () -. gate_t0 in
  let tiebreaks = [ Core.Engine.Bounds; Core.Engine.Lowest_next_hop ] in
  let pairs_per_round = lanes_total * List.length policies * 2 in
  let solves_per_round = Array.length batches * List.length policies * 2 in
  let round f =
    let q0 = Gc.quick_stat () in
    let t0 = Unix.gettimeofday () in
    List.iter
      (fun policy ->
        Array.iter
          (fun (dst, attackers) ->
            List.iter
              (fun tiebreak -> f ~tiebreak policy ~dst ~attackers)
              tiebreaks)
          batches)
      policies;
    let dt = Unix.gettimeofday () -. t0 in
    let q1 = Gc.quick_stat () in
    ( dt,
      q1.Gc.minor_words -. q0.Gc.minor_words,
      q1.Gc.promoted_words -. q0.Gc.promoted_words,
      float_of_int (q1.Gc.major_collections - q0.Gc.major_collections) )
  in
  let bws = Core.Batch.Workspace.create nn in
  let ews = Core.Engine.Workspace.create nn in
  let batched ~tiebreak policy ~dst ~attackers =
    ignore (Core.Batch.compute ~tiebreak ~ws:bws g policy dep ~dst ~attackers)
  in
  let scalar ~tiebreak policy ~dst ~attackers =
    Array.iter
      (fun m ->
        ignore
          (Core.Engine.compute ~tiebreak ~ws:ews g policy dep ~dst
             ~attacker:(Some m)))
      attackers
  in
  ignore (round batched);
  ignore (round scalar);
  let sides = [| (batched, ref []); (scalar, ref []) |] in
  for _ = 1 to reps do
    Array.iter (fun (f, acc) -> acc := round f :: !acc) sides
  done;
  let total acc f = List.fold_left (fun s x -> s +. f x) 0. !acc in
  let stats (_, acc) =
    let s = total acc (fun (t, _, _, _) -> t) in
    let words = total acc (fun (_, w, _, _) -> w) in
    let promoted = total acc (fun (_, _, p, _) -> p) in
    let majors = total acc (fun (_, _, _, m) -> m) in
    let runs = float_of_int (pairs_per_round * reps) in
    (runs /. s, words /. runs, promoted /. runs, majors /. runs, s)
  in
  let batch_rate, batch_words, batch_prom, batch_maj, batch_s =
    stats sides.(0)
  in
  let eng_rate, eng_words, eng_prom, eng_maj, _ = stats sides.(1) in
  let speedup = batch_rate /. eng_rate in
  let lanes_avg =
    float_of_int lanes_total /. float_of_int (Array.length batches)
  in
  Printf.printf
    "#### Batch kernel (n=%d, %d dsts x %.1f lanes x %d policies x 2 \
     tiebreaks x %d reps) ####\n\
    \     batch       %10.1f pairs/s  %10.0f minor words/pair  %8.1f \
     promoted/pair  (%.1f solves/s)\n\
    \     engine+ws   %10.1f pairs/s  %10.0f minor words/pair  %8.1f \
     promoted/pair\n\
    \     speedup (batch vs engine+ws): x%.2f; identity gate %.3fs \
     (untimed)\n\n\
     %!"
    n (Array.length batches) lanes_avg (List.length policies) reps batch_rate
    batch_words batch_prom
    (float_of_int (solves_per_round * reps) /. batch_s)
    eng_rate eng_words eng_prom speedup gate_s;
  [
    ("dsts", float_of_int (Array.length batches));
    ("attackers_per_solve", lanes_avg);
    ("pairs", float_of_int pairs_per_round);
    ("runs", float_of_int (pairs_per_round * reps));
    ("batch_pairs_per_s", batch_rate);
    ("batch_minor_words_per_pair", batch_words);
    ("batch_promoted_words_per_pair", batch_prom);
    ("batch_major_collections_per_pair", batch_maj);
    ("batch_solves_per_s", float_of_int (solves_per_round * reps) /. batch_s);
    ("engine_pairs_per_s", eng_rate);
    ("engine_minor_words_per_pair", eng_words);
    ("engine_promoted_words_per_pair", eng_prom);
    ("engine_major_collections_per_pair", eng_maj);
    ("speedup", speedup);
    ("gate_s", gate_s);
    ("identity_gate", 1.);
  ]

(* Topology layer benchmark (PR 9).

   Side one: loading a binary snapshot against regenerating the same
   graph with Topogen — the load must be CSR-bit-identical to the
   generated graph (gate) and is expected to be orders of magnitude
   faster (the >=100x acceptance claim at n >= 40000).

   Side two: a link-flap delta replay.  Each step flaps (adds or
   removes) a few peer links between stub ASes — IXP-style edge-peering
   churn, the dominant real-world topology change and the workload a
   CAIDA-style snapshot replay produces — and every other step one flap
   is incident to a sampled destination, so some words genuinely change.
   Metric.Replay re-solves only the destination words its influence
   test marks dirty: a stub<->stub peer link is Ex-blocked in every word
   whose destination and attackers lie elsewhere (stub routes are
   provider routes, never exported to peers), so those words carry; a
   destination-incident flap changes that word's tree and must re-solve.
   The scratch side rebuilds a fresh replay on the stepped graph and
   primes every word.  Both sides' per-pair bounds must be bit-identical
   at every step (gate); the interesting numbers are wall time and
   engine evaluations (lanes solved) per side — the >=5x acceptance
   claim is scratch_evals / replay_evals. *)
let run_topology_bench () =
  let n = env_int "SBGP_BENCH_N" 4000 in
  let seed = env_int "SBGP_SEED" 42 in
  let dsts_k = max 1 (env_int "SBGP_BENCH_TOPO_DSTS" 6) in
  let steps = max 1 (env_int "SBGP_BENCH_TOPO_STEPS" 10) in
  let flips = max 1 (env_int "SBGP_BENCH_TOPO_FLIPS" 3) in
  let load_reps = max 1 (env_int "SBGP_BENCH_LOAD_REPS" 5) in
  let gen () =
    Core.Topogen.generate
      ~params:(Core.Topogen.default_params ~n)
      (Core.Rng.create seed)
  in
  let gen_t0 = Unix.gettimeofday () in
  let result = gen () in
  let gen_s = Unix.gettimeofday () -. gen_t0 in
  let g = result.Core.Topogen.graph in
  let nn = Core.Graph.n g in
  (* Snapshot save + repeated loads. *)
  let path = Filename.temp_file "sbgp-bench" ".snap" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let save_t0 = Unix.gettimeofday () in
      Core.Serial.save_snapshot path g;
      let save_s = Unix.gettimeofday () -. save_t0 in
      let snapshot_bytes = (Unix.stat path).Unix.st_size in
      let ints_equal (x : Core.Graph.ints) (y : Core.Graph.ints) =
        Bigarray.Array1.dim x = Bigarray.Array1.dim y
        &&
        let ok = ref true in
        for i = 0 to Bigarray.Array1.dim x - 1 do
          if x.{i} <> y.{i} then ok := false
        done;
        !ok
      in
      (* Identity gate (untimed): the loaded graph is the generated one,
         bit for bit. *)
      let first = Core.Serial.load_snapshot path in
      let cg = Core.Graph.csr g and cl = Core.Graph.csr first in
      if
        not
          (Core.Graph.n first = nn
          && ints_equal cg.Core.Graph.Csr.xs cl.Core.Graph.Csr.xs
          && ints_equal cg.Core.Graph.Csr.adj cl.Core.Graph.Csr.adj)
      then failwith "topology bench: snapshot identity gate failed";
      let load_t0 = Unix.gettimeofday () in
      for _ = 1 to load_reps do
        ignore (Core.Serial.load_snapshot path)
      done;
      let load_s = (Unix.gettimeofday () -. load_t0) /. float_of_int load_reps in
      let load_speedup = gen_s /. load_s in
      (* Delta replay.  Destinations sampled anywhere, one full word of
         non-stub attackers shared by every destination. *)
      let tiers = Core.Topogen.tiers result in
      let dep = Core.Deployment.tier1_tier2 g tiers ~n_t1:13 ~n_t2:50 in
      let rng = Core.Rng.create (seed + 17) in
      let dsts = Core.Rng.sample_without_replacement rng (min dsts_k (nn / 2)) nn in
      let pool = Core.Tiers.non_stubs tiers in
      let attackers =
        Core.Rng.sample_without_replacement rng
          (min (Core.Batch.max_lanes + 1) (Array.length pool))
          (Array.length pool)
        |> Array.map (fun i -> pool.(i))
        |> Array.to_list
        |> List.filter (fun m -> not (Array.mem m dsts))
        |> Array.of_list
      in
      let attackers =
        Array.sub attackers 0 (min Core.Batch.max_lanes (Array.length attackers))
      in
      let pairs = Core.Metric.pairs ~attackers ~dsts () in
      let lanes_total = Array.length pairs in
      let policy = Core.Policy.make Core.Policy.Security_third in
      let rp = Core.Metric.Replay.create g policy dep pairs in
      ignore (Core.Metric.Replay.eval rp);
      let primed = (Core.Metric.Replay.stats rp).Core.Metric.Replay.lanes_solved in
      (* Per-step deltas: flap peer links between stubs (adding when the
         pair is non-adjacent, removing when a peer link exists), plus —
         every other step — one flap incident to a sampled destination.
         Distinct pairs within a step, as Graph.Delta requires. *)
      let stubs =
        Array.of_seq
          (Seq.filter (Core.Graph.is_stub g) (Seq.init nn (fun v -> v)))
      in
      if Array.length stubs < 2 then
        failwith "topology bench: graph has fewer than two stubs";
      let step_delta step g =
        let used = Hashtbl.create 8 in
        let ops = ref [] in
        let flap a b =
          let a, b = (min a b, max a b) in
          if a <> b && not (Hashtbl.mem used (a, b)) then begin
            match Core.Graph.relationship g a b with
            | None ->
                Hashtbl.replace used (a, b) ();
                ops := Core.Graph.Delta.Add (Core.Graph.Peer_peer (a, b)) :: !ops
            | Some (Core.Graph.Peer_peer _ as e) ->
                Hashtbl.replace used (a, b) ();
                ops := Core.Graph.Delta.Remove e :: !ops
            | Some (Core.Graph.Customer_provider _) -> ()
          end
        in
        let pick () = stubs.(Core.Rng.int rng (Array.length stubs)) in
        if step mod 2 = 0 then
          flap dsts.(step / 2 mod Array.length dsts) (pick ());
        let guard = ref (10 * flips) in
        while List.length !ops < flips && !guard > 0 do
          decr guard;
          flap (pick ()) (pick ())
        done;
        if !ops = [] then failwith "topology bench: empty delta step";
        Array.of_list (List.rev !ops)
      in
      let bits_equal a b =
        Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
      in
      let replay_s = ref 0. and scratch_s = ref 0. in
      let scratch_evals = ref 0 in
      for step = 1 to steps do
        let delta = step_delta step (Core.Metric.Replay.graph rp) in
        let t0 = Unix.gettimeofday () in
        ignore (Core.Metric.Replay.step rp delta);
        replay_s := !replay_s +. (Unix.gettimeofday () -. t0);
        (* Scratch side: fresh replay on the stepped graph, full prime. *)
        let g' = Core.Metric.Replay.graph rp in
        let t0 = Unix.gettimeofday () in
        let fresh = Core.Metric.Replay.create g' policy dep pairs in
        ignore (Core.Metric.Replay.eval fresh);
        scratch_s := !scratch_s +. (Unix.gettimeofday () -. t0);
        scratch_evals :=
          !scratch_evals
          + (Core.Metric.Replay.stats fresh).Core.Metric.Replay.lanes_solved;
        (* Identity gate: every pair's bounds bit-identical. *)
        let a = Core.Metric.Replay.values rp in
        let b = Core.Metric.Replay.values fresh in
        Array.iteri
          (fun i p ->
            if
              not
                (bits_equal a.(i).Core.Metric.lb b.(i).Core.Metric.lb
                && bits_equal a.(i).Core.Metric.ub b.(i).Core.Metric.ub)
            then
              failwith
                (Printf.sprintf
                   "topology bench: replay identity gate failed at step %d, \
                    pair (m=%d, d=%d)"
                   step p.Core.Metric.attacker p.Core.Metric.dst))
          pairs
      done;
      let st = Core.Metric.Replay.stats rp in
      let replay_evals = st.Core.Metric.Replay.lanes_solved - primed in
      let eval_ratio =
        float_of_int !scratch_evals /. float_of_int (max 1 replay_evals)
      in
      Printf.printf
        "#### Topology layer (n=%d, %d dsts x %d lanes, %d delta steps x %d \
         flaps) ####\n\
        \     generate    %10.3f s\n\
        \     save        %10.3f s  (%d bytes)\n\
        \     load        %10.5f s  (x%.0f vs generate, %d reps)\n\
        \     replay      %10.3f s  %6d engine evals over %d steps (%d \
         carried)\n\
        \     scratch     %10.3f s  %6d engine evals\n\
        \     eval ratio (scratch/replay): x%.1f; identity gates passed\n\n\
         %!"
        n (Array.length dsts) (Array.length attackers) steps flips gen_s save_s
        snapshot_bytes load_s load_speedup load_reps !replay_s replay_evals
        steps st.Core.Metric.Replay.lanes_carried !scratch_s !scratch_evals
        eval_ratio;
      [
        ("gen_s", gen_s);
        ("save_s", save_s);
        ("snapshot_bytes", float_of_int snapshot_bytes);
        ("load_s", load_s);
        ("load_speedup", load_speedup);
        ("dsts", float_of_int (Array.length dsts));
        ("lanes", float_of_int lanes_total);
        ("delta_steps", float_of_int steps);
        ("replay_s", !replay_s);
        ("replay_evals", float_of_int replay_evals);
        ("lanes_carried", float_of_int st.Core.Metric.Replay.lanes_carried);
        ("scratch_s", !scratch_s);
        ("scratch_evals", float_of_int !scratch_evals);
        ("eval_ratio", eval_ratio);
        ("identity_gate", 1.);
      ])

(* Max-k optimizer benchmark: CELF lazy greedy vs naive full-re-eval
   greedy on one seeded instance.  The naive side re-scores every
   remaining candidate from scratch each round (candidates x pairs
   engine evaluations per step); CELF pays the full candidate sweep only
   on its first round — through the incremental evaluator, so each score
   costs just the candidate's dirty cone — and afterwards touches only
   stale queue tops plus provably-dirty rounds.  The identity gate
   (Check.Optimize.compare_results) makes the comparison meaningful:
   both sides must emit the bit-identical pick sequence and bounds. *)
let run_optimize_bench () =
  let n = env_int "SBGP_BENCH_N" 4000 in
  let seed = env_int "SBGP_SEED" 42 in
  let cands_k = max 2 (env_int "SBGP_BENCH_OPT_CANDS" 48) in
  let k = max 1 (env_int "SBGP_BENCH_OPT_K" 6) in
  let result =
    Core.Topogen.generate
      ~params:(Core.Topogen.default_params ~n)
      (Core.Rng.create seed)
  in
  let g = result.Core.Topogen.graph in
  let nn = Core.Graph.n g in
  let tiers = Core.Topogen.tiers result in
  let rng = Core.Rng.create (seed + 17) in
  let dsts = Core.Rng.sample_without_replacement rng (min 6 nn) nn in
  let non_stubs = Core.Tiers.non_stubs tiers in
  let in_dsts v = Array.exists (( = ) v) dsts in
  let attackers =
    Array.to_list
      (Core.Rng.sample_without_replacement rng
         (min 12 (Array.length non_stubs))
         (Array.length non_stubs))
    |> List.filter_map (fun i ->
           if in_dsts non_stubs.(i) then None else Some non_stubs.(i))
    |> Array.of_list
  in
  let attackers = Array.sub attackers 0 (min 8 (Array.length attackers)) in
  (* Candidates: the provider/peer rings around the destinations — the
     only region where a pick can complete a contiguous secure chain and
     move the metric (see lib/experiments/exp_optimize.ml). *)
  let in_attackers v = Array.exists (( = ) v) attackers in
  let ring = Hashtbl.create 64 in
  let add v =
    if not (in_dsts v || in_attackers v) then Hashtbl.replace ring v ()
  in
  Array.iter
    (fun d ->
      Array.iter add (Core.Graph.providers g d);
      Array.iter add (Core.Graph.peers g d))
    dsts;
  let ring1 = Hashtbl.fold (fun v () acc -> v :: acc) ring [] in
  List.iter (fun v -> Array.iter add (Core.Graph.providers g v)) ring1;
  List.iter
    (fun v ->
      Array.iter add (Core.Graph.providers g v);
      Array.iter add (Core.Graph.peers g v))
    (Hashtbl.fold (fun v () acc -> v :: acc) ring []);
  let ring_pool =
    Hashtbl.fold (fun v () acc -> v :: acc) ring []
    |> List.sort compare |> Array.of_list
  in
  let cands_k = min cands_k (Array.length ring_pool) in
  let candidates =
    Array.map
      (fun i -> ring_pool.(i))
      (Core.Rng.sample_without_replacement rng cands_k
         (Array.length ring_pool))
  in
  let pairs = Core.Metric.pairs ~attackers ~dsts () in
  let base = Core.Deployment.make ~n:nn ~full:[||] ~simplex:dsts () in
  let policy = Core.Policy.make Core.Policy.Security_first in
  let pool =
    Core.Parallel.Pool.create ~domains:(max 2 (Core.Parallel.default_domains ())) ()
  in
  Fun.protect
    ~finally:(fun () -> Core.Parallel.Pool.shutdown pool)
    (fun () ->
      (* Gc counters are per-domain: the deltas below cover the main
         domain only (coordination, queue upkeep, result assembly) —
         the pool workers' heaps are not included. *)
      let time f =
        let q0 = Gc.quick_stat () in
        let t0 = Unix.gettimeofday () in
        let x = f () in
        let dt = Unix.gettimeofday () -. t0 in
        let q1 = Gc.quick_stat () in
        ( x,
          dt,
          q1.Gc.promoted_words -. q0.Gc.promoted_words,
          float_of_int (q1.Gc.major_collections - q0.Gc.major_collections) )
      in
      let naive, naive_s, naive_prom, naive_maj =
        time (fun () ->
            Core.Optimize.Max_k.greedy ~pool ~objective:`Lb ~base g policy
              ~pairs ~k ~candidates)
      in
      let cache = Core.Metric.Cache.create () in
      let celf, celf_s, celf_prom, celf_maj =
        time (fun () ->
            Core.Optimize.Max_k.celf ~pool ~cache ~objective:`Lb ~base g
              policy ~pairs ~k ~candidates)
      in
      (match
         Core.Check.Optimize.compare_results ~label:"optimize bench" naive
           celf
       with
      | [] -> ()
      | d :: _ ->
          failwith
            ("optimize bench: identity gate failed: "
            ^ Core.Check.Diagnostic.to_string d));
      let steps = max 1 naive.Core.Optimize.Max_k.achieved in
      let fsteps = float_of_int steps in
      let naive_evals = naive.Core.Optimize.Max_k.engine_evals in
      let celf_evals = celf.Core.Optimize.Max_k.engine_evals in
      let ratio = float_of_int naive_evals /. float_of_int celf_evals in
      Printf.printf
        "#### Max-k optimizer (n=%d, %d candidates, %d pairs, k=%d): naive \
         %.3fs (%.3fs/step, %d evals, %.0f/step) vs CELF %.3fs (%.3fs/step, \
         %d evals, %.0f/step) — x%.1f fewer evals/step, x%.2f wall, \
         identical picks ####\n\n\
         %!"
        n cands_k (Array.length pairs) steps naive_s (naive_s /. fsteps)
        naive_evals
        (float_of_int naive_evals /. fsteps)
        celf_s (celf_s /. fsteps) celf_evals
        (float_of_int celf_evals /. fsteps)
        ratio (naive_s /. celf_s);
      [
        ("candidates", float_of_int cands_k);
        ("pairs", float_of_int (Array.length pairs));
        ("k", float_of_int k);
        ("achieved", float_of_int naive.Core.Optimize.Max_k.achieved);
        ("naive_s", naive_s);
        ("naive_s_per_step", naive_s /. fsteps);
        ("naive_evals", float_of_int naive_evals);
        ("naive_evals_per_step", float_of_int naive_evals /. fsteps);
        ("celf_s", celf_s);
        ("celf_s_per_step", celf_s /. fsteps);
        ("celf_evals", float_of_int celf_evals);
        ("celf_evals_per_step", float_of_int celf_evals /. fsteps);
        ("celf_gain_evals", float_of_int celf.Core.Optimize.Max_k.gain_evals);
        (* Pair evaluations = engine evals x |pairs|; main domain only. *)
        ( "naive_promoted_words_per_pair",
          naive_prom /. float_of_int (naive_evals * Array.length pairs) );
        ( "celf_promoted_words_per_pair",
          celf_prom /. float_of_int (celf_evals * Array.length pairs) );
        ("naive_major_collections", naive_maj);
        ("celf_major_collections", celf_maj);
        ("eval_ratio", ratio);
        ("speedup", naive_s /. celf_s);
        ("identity_gate", 1.);
      ])

(* Minimal JSON emission — no dependencies, flat string/number maps. *)
let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_float f =
  if Float.is_finite f then Printf.sprintf "%.6g" f else "null"

let json_obj fields =
  "{"
  ^ String.concat ","
      (List.map (fun (k, v) -> Printf.sprintf "\"%s\":%s" (json_escape k) v)
         fields)
  ^ "}"

let num_map kvs = json_obj (List.map (fun (k, v) -> (k, json_float v)) kvs)

let write_json ~label ~sections ~total_s =
  let doc =
    json_obj
      ([
         ("label", Printf.sprintf "\"%s\"" (json_escape label));
         ("n", string_of_int (env_int "SBGP_BENCH_N" 4000));
         ("scale", json_float (env_float "SBGP_SCALE" 1.0));
         ("seed", string_of_int (env_int "SBGP_SEED" 42));
         ("domains", string_of_int (Core.Parallel.default_domains ()));
       ]
      @ sections
      @ [ ("total_s", json_float total_s) ])
  in
  let path = Printf.sprintf "BENCH_%s.json" label in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc doc;
      output_char oc '\n');
  Printf.printf "wrote %s\n%!" path

let () =
  let json =
    Array.exists (( = ) "--json") Sys.argv
    ||
    match Sys.getenv_opt "SBGP_BENCH_JSON" with
    | None | Some "" | Some "0" -> false
    | Some _ -> true
  in
  let t0 = Unix.gettimeofday () in
  let sections = ref [] in
  let add name kvs = sections := !sections @ [ (name, num_map kvs) ] in
  if part "experiments" then add "experiments_s" (run_experiments ());
  if part "micro" then add "micro_ns_per_run" (run_micro ());
  if part "h_metric" then add "h_metric" (run_h_metric_comparison ());
  if part "rollout" then add "rollout" (run_rollout_bench ());
  if part "kernel" then add "kernel" (run_kernel_bench ());
  if part "batch" then add "batch" (run_batch_bench ());
  if part "optimize" then add "optimize" (run_optimize_bench ());
  if part "topology" then add "topology" (run_topology_bench ());
  let total_s = Unix.gettimeofday () -. t0 in
  if json then begin
    let label =
      match Sys.getenv_opt "SBGP_BENCH_LABEL" with
      | Some l when l <> "" -> l
      | _ -> "default"
    in
    write_json ~label ~sections:!sections ~total_s
  end;
  Printf.printf "total bench time: %.1fs\n" total_s
