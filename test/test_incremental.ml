(* The incremental rollout machinery: dirty cones (Routing.Incremental),
   the normalized bounds cache, and the H-metric evaluator.  The load-
   bearing property throughout is bit-identity: everything the cone or
   the cache declares reusable must equal the from-scratch value exactly,
   for every policy model, both tiebreak modes, with and without the
   worker pool. *)

open Test_helpers

(* One pool for all pooled properties; spawning per test case would
   dominate the suite's runtime. *)
let shared_pool = lazy (Core.Parallel.Pool.create ~domains:2 ())

(* A random monotone upgrade of [dep]: each AS keeps its mode or moves up. *)
let upgrade rng dep =
  let n = Core.Deployment.n dep in
  Core.Deployment.of_modes
    (Array.init n (fun v ->
         let m = Core.Deployment.mode dep v in
         if Core.Rng.int rng 3 = 0 then
           match m with
           | Core.Deployment.Off ->
               if Core.Rng.int rng 2 = 0 then Core.Deployment.Simplex
               else Core.Deployment.Full
           | Core.Deployment.Simplex -> Core.Deployment.Full
           | Core.Deployment.Full -> Core.Deployment.Full
         else m))

(* A random downgrade, to exercise the non-monotone fallback. *)
let downgrade rng dep =
  let n = Core.Deployment.n dep in
  Core.Deployment.of_modes
    (Array.init n (fun v ->
         if Core.Rng.int rng 4 = 0 then Core.Deployment.Off
         else Core.Deployment.mode dep v))

(* Soundness of the cone itself: any pair [dirty_pair] clears must have a
   bit-identical engine outcome under both deployments — for a random
   (possibly non-monotone) delta, a random policy, and both tiebreaks. *)
let prop_cone_sound seed =
  let rng = Core.Rng.create seed in
  let g = random_graph rng ~max_n:40 in
  let n = Core.Graph.n g in
  let old_dep = random_deployment rng n in
  let new_dep =
    if Core.Rng.int rng 2 = 0 then upgrade rng old_dep
    else random_deployment rng n
  in
  let policy = random_policy rng in
  let dsts = Array.init n Fun.id in
  let cone = Core.Incremental.compute g ~old_dep ~new_dep ~dsts in
  let ok = ref true in
  Array.iter
    (fun dst ->
      for attacker = 0 to n - 1 do
        if
          attacker <> dst
          && not (Core.Incremental.dirty_pair cone ~attacker ~dst)
        then
          List.iter
            (fun tiebreak ->
              let out dep =
                Core.Engine.compute ~tiebreak g policy dep ~dst
                  ~attacker:(Some attacker)
              in
              match outcome_mismatch (out old_dep) (out new_dep) with
              | None -> ()
              | Some msg ->
                  Printf.eprintf
                    "clean pair (m=%d, d=%d) changed: %s\n%!" attacker dst msg;
                  ok := false)
            [ Core.Engine.Bounds; Core.Engine.Lowest_next_hop ]
      done)
    dsts;
  !ok

(* The evaluator along a random monotone chain with a downgrade tail must
   reproduce the from-scratch H-metric bit-for-bit at every step — per
   aggregate and per pair. *)
let prop_evaluator_exact ~pool seed =
  let rng = Core.Rng.create seed in
  let g = random_graph rng ~max_n:40 in
  let n = Core.Graph.n g in
  let policy = random_policy rng in
  let pick k =
    Core.Rng.sample_without_replacement rng (min k n) n
  in
  let attackers = pick (3 + Core.Rng.int rng 5) in
  let dsts = pick (3 + Core.Rng.int rng 5) in
  let pairs = Core.Metric.pairs ~attackers ~dsts () in
  let chain =
    let d0 = Core.Deployment.empty n in
    let d1 = upgrade rng d0 in
    let d2 = upgrade rng d1 in
    let d3 = upgrade rng d2 in
    [ d0; d1; d2; d2 (* repeat: the delta-free fast path *); d3; downgrade rng d3 ]
  in
  let pool = if pool then Some (Lazy.force shared_pool) else None in
  let ev = Core.Metric.Evaluator.create ?pool g policy pairs in
  List.for_all
    (fun dep ->
      let inc = Core.Metric.Evaluator.eval ev dep in
      let scratch = Core.Metric.h_metric g policy dep pairs in
      let per_pair_equal =
        Array.for_all2
          (fun (a : Core.Metric.bounds) b -> a = b)
          (Core.Metric.Evaluator.values ev)
          (Array.map (fun p -> Core.Metric.pair_bounds g policy dep p) pairs)
      in
      if inc <> scratch then
        Printf.eprintf "aggregate differs at %s\n%!"
          (Core.Deployment.describe dep);
      if not per_pair_equal then Printf.eprintf "per-pair values differ\n%!";
      inc = scratch && per_pair_equal)
    chain

(* A sibling evaluator over the same pairs must be served entirely from
   the shared cache. *)
let test_cache_reuse () =
  let rng = Core.Rng.create 11 in
  let g = random_graph rng ~max_n:30 in
  let n = Core.Graph.n g in
  let dep = random_deployment rng n in
  let pairs =
    Core.Metric.pairs
      ~attackers:(Core.Rng.sample_without_replacement rng 4 n)
      ~dsts:(Core.Rng.sample_without_replacement rng 4 n)
      ()
  in
  let cache = Core.Metric.Cache.create () in
  let policy = Core.Policy.make Core.Policy.Security_second in
  let ev1 = Core.Metric.Evaluator.create ~cache g policy pairs in
  let b1 = Core.Metric.Evaluator.eval ev1 dep in
  let ev2 = Core.Metric.Evaluator.create ~cache g policy pairs in
  let b2 = Core.Metric.Evaluator.eval ev2 dep in
  Alcotest.(check bool) "same bounds" true (b1 = b2);
  let st = Core.Metric.Evaluator.stats ev2 in
  Alcotest.(check int) "all pairs from cache" (Array.length pairs)
    st.Core.Metric.Evaluator.cache_hits;
  Alcotest.(check int) "nothing recomputed" 0 st.Core.Metric.Evaluator.computed

(* Theorem 6.1 shortcut: security-3rd + standard LP + monotone delta + a
   pair already at {1, 1} must be skipped, not recomputed.  In the
   3-node hierarchy below, AS 1's only route to dst 0 is legitimate, so
   the pair (attacker 2, dst 0) sits at {1, 1} for every deployment. *)
let test_thm_skip () =
  let g = graph 3 [ c2p 1 0; c2p 2 0 ] in
  let policy = Core.Policy.make Core.Policy.Security_third in
  let pairs = [| { Core.Metric.attacker = 2; dst = 0 } |] in
  let ev = Core.Metric.Evaluator.create g policy pairs in
  let d0 = Core.Deployment.empty 3 in
  let d1 = Core.Deployment.make ~n:3 ~full:[| 0 |] () in
  let d2 = Core.Deployment.make ~n:3 ~full:[| 0; 1 |] () in
  List.iter (fun d -> ignore (Core.Metric.Evaluator.eval ev d)) [ d0; d1; d2 ];
  let st = Core.Metric.Evaluator.stats ev in
  Alcotest.(check bool) "theorem skips fired" true
    (st.Core.Metric.Evaluator.thm_skips >= 1);
  (* And the skipped value is the truth: *)
  let b = Core.Metric.pair_bounds g policy d2 pairs.(0) in
  Alcotest.(check bool) "skipped pair is at {1,1}" true
    (b.Core.Metric.lb = 1.0 && b.Core.Metric.ub = 1.0
    && (Core.Metric.Evaluator.values ev).(0) = b)

(* Key normalization: a destination that does not sign its origin yields
   the same outcome under every security model and every deployment, so
   the cache serves all of them from one entry — and the served value
   must equal the from-scratch one for the *other* model. *)
let test_unsigned_dst_normalization () =
  let rng = Core.Rng.create 23 in
  let g = random_graph rng ~max_n:30 in
  let n = Core.Graph.n g in
  let dst = 1 + Core.Rng.int rng (n - 1) in
  let attacker = if dst = 0 then 1 else 0 in
  (* Everyone Full except the destination: plenty of security around, but
     the destination's origin is unsigned. *)
  let dep =
    Core.Deployment.of_modes
      (Array.init n (fun v ->
           if v = dst then Core.Deployment.Off else Core.Deployment.Full))
  in
  let other_dep = Core.Deployment.empty n in
  let pair = [| { Core.Metric.attacker; dst } |] in
  let cache = Core.Metric.Cache.create () in
  let h policy dep = Core.Metric.h_metric ~cache g policy dep pair in
  let via_sec1 = h Core.Experiments.Context.sec1 dep in
  let hits0 = Core.Metric.Cache.hits cache in
  let via_sec2 = h Core.Experiments.Context.sec2 dep in
  let via_sec3 = h Core.Experiments.Context.sec3 dep in
  let via_other_dep = h Core.Experiments.Context.sec1 other_dep in
  Alcotest.(check int) "one engine eval serves all models and deployments"
    (Core.Metric.Cache.hits cache - hits0)
    3;
  (* The shared entry is not just shared but *correct* for each model. *)
  List.iter
    (fun (label, policy, got) ->
      let fresh = Core.Metric.h_metric g policy dep pair in
      Alcotest.(check bool) label true (got = fresh))
    [
      ("sec1 exact", Core.Experiments.Context.sec1, via_sec1);
      ("sec2 exact", Core.Experiments.Context.sec2, via_sec2);
      ("sec3 exact", Core.Experiments.Context.sec3, via_sec3);
    ];
  let fresh_other =
    Core.Metric.h_metric g Core.Experiments.Context.sec1 other_dep pair
  in
  Alcotest.(check bool) "other deployment exact" true
    (via_other_dep = fresh_other)

(* Cache.carry republishes exactly the cone-clean pairs under the new
   version, bit-identically. *)
let test_carry () =
  let rng = Core.Rng.create 31 in
  let g = random_graph rng ~max_n:30 in
  let n = Core.Graph.n g in
  let old_dep = random_deployment rng n in
  let new_dep = upgrade rng old_dep in
  let policy = random_policy rng in
  let attackers = Core.Rng.sample_without_replacement rng (min 5 n) n in
  let dsts = Core.Rng.sample_without_replacement rng (min 5 n) n in
  let pairs = Core.Metric.pairs ~attackers ~dsts () in
  let cache = Core.Metric.Cache.create () in
  ignore (Core.Metric.h_metric ~cache g policy old_dep pairs);
  let cone = Core.Incremental.compute g ~old_dep ~new_dep ~dsts in
  let carried =
    Core.Metric.Cache.carry cache policy g cone ~old_dep ~new_dep ~attackers
      ~dsts
  in
  let misses0 = Core.Metric.Cache.misses cache in
  let via_cache = Core.Metric.h_metric ~cache g policy new_dep pairs in
  let fresh = Core.Metric.h_metric g policy new_dep pairs in
  Alcotest.(check bool) "carried values are exact" true (via_cache = fresh);
  (* Every clean pair was carried; only dirty ones needed the engine.
     (Unsigned destinations are already served by the normalized key, so
     they produce neither a carry miss nor an engine run.) *)
  let engine_runs = Core.Metric.Cache.misses cache - misses0 in
  Alcotest.(check bool) "carry saved the clean pairs" true
    (carried = 0 || engine_runs < Array.length pairs);
  Alcotest.(check bool) "carried plus computed cover the pairs" true
    (carried + engine_runs <= Array.length pairs)

(* The documented contract of the cone on a hand-built hierarchy, where
   every verdict can be read off the picture: 0 is the provider of 1 and
   3, 1 of 2, and 3 of 4; AS 3 never deploys, and the rollout adds AS 0
   to a Full set {1, 2, 4}. *)
let test_cone_contracts () =
  let g = graph 5 [ c2p 1 0; c2p 2 1; c2p 3 0; c2p 4 3 ] in
  let old_dep = Core.Deployment.make ~n:5 ~full:[| 1; 2; 4 |] () in
  let new_dep = Core.Deployment.make ~n:5 ~full:[| 0; 1; 2; 4 |] () in
  let dsts = [| 0; 2; 3; 4; 2 |] in
  let cone = Core.Incremental.compute g ~old_dep ~new_dep ~dsts in
  let ints = Alcotest.(array int) in
  Alcotest.(check bool) "upgrade is monotone" true
    (Core.Incremental.monotone cone);
  Alcotest.check ints "changed full" [| 0 |]
    (Core.Incremental.changed_full cone);
  Alcotest.check ints "changed signs" [| 0 |]
    (Core.Incremental.changed_signs cone);
  (* 0 starts signing; 0 sits in 2's secure cone; 3 never signs; 4's
     only way up is through the undeployed 3; 1 was not requested. *)
  List.iter
    (fun (d, want) ->
      Alcotest.(check bool)
        (Printf.sprintf "dirty_dst %d" d)
        want
        (Core.Incremental.dirty_dst cone d))
    [ (0, true); (2, true); (3, false); (4, false); (1, true) ];
  Alcotest.(check bool) "the only witness as attacker is exempt" false
    (Core.Incremental.dirty_pair cone ~attacker:0 ~dst:2);
  Alcotest.(check bool) "another attacker stays dirty" true
    (Core.Incremental.dirty_pair cone ~attacker:1 ~dst:2);
  Alcotest.(check (pair int int)) "counts each destination once" (2, 2)
    (Core.Incremental.counts cone);
  let back = Core.Incremental.compute g ~old_dep:new_dep ~new_dep:old_dep ~dsts in
  Alcotest.(check bool) "downgrade is not monotone" false
    (Core.Incremental.monotone back);
  Alcotest.(check (pair int int)) "downgrade verdicts match" (2, 2)
    (Core.Incremental.counts back);
  Alcotest.check_raises "destination out of range"
    (Invalid_argument "Incremental.compute: destination out of range")
    (fun () -> ignore (Core.Incremental.compute g ~old_dep ~new_dep ~dsts:[| 5 |]));
  Alcotest.check_raises "deployment size"
    (Invalid_argument
       "Incremental.compute: deployment sizes disagree with the graph")
    (fun () ->
      ignore
        (Core.Incremental.compute g ~old_dep:(Core.Deployment.empty 4) ~new_dep
           ~dsts))

let () =
  Alcotest.run "incremental"
    [
      ( "cone",
        [
          qtest "clean pairs are bit-identical (both tiebreaks)" ~count:120
            prop_cone_sound;
        ] );
      ( "evaluator",
        [
          qtest "matches scratch along chains (sequential)" ~count:60
            (prop_evaluator_exact ~pool:false);
          qtest "matches scratch along chains (pooled)" ~count:25
            (prop_evaluator_exact ~pool:true);
          Alcotest.test_case "sibling evaluator runs from cache" `Quick
            test_cache_reuse;
          Alcotest.test_case "theorem 6.1 skip fires and is exact" `Quick
            test_thm_skip;
        ] );
      ( "cache",
        [
          Alcotest.test_case "unsigned-destination key normalization" `Quick
            test_unsigned_dst_normalization;
          Alcotest.test_case "carry republishes clean pairs" `Quick test_carry;
        ] );
      ( "cone contracts",
        [
          Alcotest.test_case "hand-built verdicts and input checks" `Quick
            test_cone_contracts;
        ] );
    ]
