(* The invariant checker (lib/check): the linter accepts everything the
   generators produce, the verifier accepts everything the engine
   produces, the determinism analyzer finds nothing on the real engine —
   and every planted mutant is flagged with its expected rule.  Plus
   regression tests for the Partition / H_metric edge cases hardened in
   the same change. *)

open Test_helpers
module G = Core.Graph
module P = Core.Policy
module E = Core.Engine
module C = Core.Check
module D = Core.Check.Diagnostic

let no_diags what diags =
  match diags with
  | [] -> true
  | d :: _ ->
      Printf.eprintf "%s: %s\n%!" what (D.to_string d);
      false

let errors_only diags = List.filter (fun d -> d.D.severity = D.Error) diags

(* ---- pass 1: the linter ------------------------------------------ *)

let lint_accepts_random =
  qtest "lint accepts every random graph (with tiers)" (fun seed ->
      let rng = Core.Rng.create seed in
      let g = random_graph rng ~max_n:40 in
      let tiers = Core.Tiers.classify g in
      no_diags "lint" (C.Lint.graph ~tiers g))

let lint_accepts_topogen =
  qtest "lint accepts every generated topology" ~count:20 (fun seed ->
      let r =
        Core.Topogen.generate
          ~params:(Core.Topogen.default_params ~n:80)
          (Core.Rng.create seed)
      in
      let tiers =
        Core.Tiers.classify ~cps:(Array.to_list r.Core.Topogen.cps)
          r.Core.Topogen.graph
      in
      no_diags "lint" (errors_only (C.Lint.graph ~tiers r.Core.Topogen.graph)))

let lint_accepts_ixp =
  qtest "lint accepts every IXP augmentation" ~count:20 (fun seed ->
      let r =
        Core.Topogen.generate
          ~params:(Core.Topogen.default_params ~n:60)
          (Core.Rng.create seed)
      in
      let base = r.Core.Topogen.graph in
      let augmented, _ = Core.Ixp.augment (Core.Rng.create (seed + 1)) base in
      no_diags "ixp" (C.Lint.ixp ~base ~augmented))

let lint_edges_rules () =
  let has rule diags =
    Alcotest.(check bool) rule true (D.has_rule diags rule)
  in
  has "topo/out-of-range" (C.Lint.edges ~n:2 [ c2p 0 5 ]);
  has "topo/self-loop" (C.Lint.edges ~n:3 [ p2p 1 1 ]);
  has "topo/duplicate-edge" (C.Lint.edges ~n:3 [ c2p 0 1; c2p 0 1 ]);
  has "topo/relationship-conflict" (C.Lint.edges ~n:3 [ c2p 0 1; p2p 0 1 ]);
  Alcotest.(check int)
    "clean edge list" 0
    (List.length (C.Lint.edges ~n:3 [ c2p 0 1; p2p 1 2 ]))

let lint_edges_guarantee =
  (* An empty [Lint.edges] report guarantees [of_edges] succeeds. *)
  qtest "clean edge lint implies of_edges succeeds" (fun seed ->
      let rng = Core.Rng.create seed in
      let n = 2 + Core.Rng.int rng 10 in
      let mk () =
        let a = Core.Rng.int rng n and b = Core.Rng.int rng n in
        if Core.Rng.bool rng then c2p a b else p2p a b
      in
      let edges = List.init (Core.Rng.int rng 12) (fun _ -> mk ()) in
      match errors_only (C.Lint.edges ~n edges) with
      | [] ->
          ignore (G.of_edges ~n edges);
          true
      | _ -> (
          (* Errors found: of_edges must also reject (or the list holds a
             duplicate, which of_edges collapses silently). *)
          let dup = D.has_rule (C.Lint.edges ~n edges) "topo/duplicate-edge" in
          try
            ignore (G.of_edges ~n edges);
            dup
          with Invalid_argument _ -> true))

(* ---- pass 2: the verifier ---------------------------------------- *)

let random_instance rng =
  let g = random_graph rng ~max_n:25 in
  let n = G.n g in
  let policy = random_policy rng in
  let dep = random_deployment rng n in
  let dst = Core.Rng.int rng n in
  let attacker =
    if n >= 2 && Core.Rng.bool rng then
      Some ((dst + 1 + Core.Rng.int rng (n - 1)) mod n)
    else None
  in
  let claim = Core.Rng.int rng 3 in
  (g, policy, dep, dst, attacker, claim)

let verify_accepts_engine =
  qtest "verifier accepts every engine outcome" ~count:400 (fun seed ->
      let rng = Core.Rng.create seed in
      let g, policy, dep, dst, attacker, claim = random_instance rng in
      List.for_all
        (fun tiebreak ->
          let out =
            E.compute ~tiebreak ~attacker_claim:claim g policy dep ~dst
              ~attacker
          in
          no_diags
            (Printf.sprintf "verify (seed %d)" seed)
            (C.Verify.outcome ~tiebreak ~attacker_claim:claim g policy dep
               out))
        [ E.Bounds; E.Lowest_next_hop ])

let thm_sec1_holds =
  qtest "Theorem 3.1 check passes on security-1st outcomes" ~count:300
    (fun seed ->
      let rng = Core.Rng.create seed in
      let g = random_graph rng ~max_n:25 in
      let n = G.n g in
      let dep = random_deployment rng n in
      let sec1 = P.make P.Security_first in
      let dst = Core.Rng.int rng n in
      if n < 2 then true
      else begin
        let m = (dst + 1 + Core.Rng.int rng (n - 1)) mod n in
        let claim = 1 + Core.Rng.int rng 2 in
        let normal = E.compute g sec1 dep ~dst ~attacker:None in
        let attacked =
          E.compute ~attacker_claim:claim g sec1 dep ~dst ~attacker:(Some m)
        in
        no_diags "thm 3.1" (C.Verify.no_downgrade_sec1 ~normal ~attacked)
      end)

let thm_sec3_holds =
  qtest "Theorem 6.1 check passes on security-3rd outcomes" ~count:300
    (fun seed ->
      let rng = Core.Rng.create seed in
      let g = random_graph rng ~max_n:25 in
      let n = G.n g in
      let sec3 = P.make P.Security_third in
      let sub_dep = random_deployment rng n in
      (* A random pointwise-larger deployment. *)
      let super_dep = Core.Deployment.union sub_dep (random_deployment rng n) in
      let dst = Core.Rng.int rng n in
      if n < 2 then true
      else begin
        let m = (dst + 1 + Core.Rng.int rng (n - 1)) mod n in
        let claim = 1 + Core.Rng.int rng 2 in
        let sub =
          E.compute ~attacker_claim:claim g sec3 sub_dep ~dst
            ~attacker:(Some m)
        in
        let super =
          E.compute ~attacker_claim:claim g sec3 super_dep ~dst
            ~attacker:(Some m)
        in
        no_diags "thm 6.1" (C.Verify.sec3_monotone ~sub ~super)
      end)

(* ---- pass 3: determinism ----------------------------------------- *)

let determinism_clean =
  qtest "determinism analyzer finds nothing on the real engine" ~count:10
    (fun seed ->
      let rng = Core.Rng.create seed in
      let g = random_graph rng ~max_n:30 in
      let n = G.n g in
      let dep = random_deployment rng n in
      let policy = random_policy rng in
      let pairs =
        Array.init 5 (fun i ->
            let dst = Core.Rng.int rng n in
            if i mod 2 = 0 || n < 2 then (dst, None)
            else (dst, Some ((dst + 1) mod n)))
      in
      no_diags "determinism" (C.Determinism.analyze g policy dep pairs))

(* ---- the mutant suite -------------------------------------------- *)

let mutant_tests =
  List.map
    (fun m ->
      Alcotest.test_case m.C.Mutants.name `Quick (fun () ->
          let diags = m.C.Mutants.run () in
          Alcotest.(check bool)
            (Printf.sprintf "%s raises %s" m.C.Mutants.name
               m.C.Mutants.expected_rule)
            true
            (D.has_rule diags m.C.Mutants.expected_rule)))
    C.Mutants.all

(* The partition mutants' gadgets pass the sub-pass unfaulted, so their
   detection is the planted bug's doing. *)
let partition_gadgets_clean () =
  let clean what g =
    Alcotest.(check bool) what true
      (no_diags what (snd (C.Kernel.analyze_partition g [| (0, [| 1 |]) |])))
  in
  clean "unblocked-attacker gadget" (graph 4 [ c2p 0 1; c2p 1 2; c2p 3 2 ]);
  clean "shared-solve gadget" (graph 3 [ c2p 0 1; c2p 1 2; p2p 0 2 ])

let mutant_report_clean () =
  let r = C.Mutants.report () in
  Alcotest.(check bool) "no false negatives" true (D.ok r)

(* ---- Check.run integration --------------------------------------- *)

let full_run_clean () =
  let r =
    Core.Topogen.generate
      ~params:(Core.Topogen.default_params ~n:60)
      (Core.Rng.create 11)
  in
  let tiers =
    Core.Tiers.classify ~cps:(Array.to_list r.Core.Topogen.cps)
      r.Core.Topogen.graph
  in
  let options = { C.default_options with C.pairs = 6; det_pairs = 3 } in
  let report = C.run ~options ~tiers r.Core.Topogen.graph in
  Alcotest.(check bool) "report ok" true (D.ok report);
  Alcotest.(check int) "no diagnostics at all" 0 (List.length report.D.diags);
  Alcotest.(check int) "eight passes ran" 8 (List.length report.D.passes)

(* The allocation gate on a real generated topology: within budget,
   identity-gated, cache probe consistent.  Runs on the main domain
   only, so the per-domain Gc counters see exactly the measured loops. *)
let alloc_gate_clean () =
  let r =
    Core.Topogen.generate
      ~params:(Core.Topogen.default_params ~n:80)
      (Core.Rng.create 11)
  in
  let report = C.run_alloc r.Core.Topogen.graph in
  Alcotest.(check bool)
    "alloc report ok"
    true
    (no_diags "alloc" report.D.diags && D.ok report)

let run_flags_broken_graph () =
  let g =
    G.unsafe_of_adjacency
      ~customers:[| [||]; [| 0; 0 |] |]
      ~providers:[| [| 1 |]; [||] |]
      ~peers:[| [||]; [||] |]
  in
  let report = C.run g in
  Alcotest.(check bool) "report not ok" false (D.ok report);
  Alcotest.(check bool)
    "duplicate flagged" true
    (D.has_rule report.D.diags "topo/duplicate-edge")

let enabled_env () =
  (* Only reads the environment; don't mutate it here, just check the
     parser against the current state. *)
  let expect =
    match Sys.getenv_opt "SBGP_CHECK" with
    | Some ("1" | "true" | "yes") -> true
    | _ -> false
  in
  Alcotest.(check bool) "enabled matches env" expect (C.enabled ())

(* ---- Partition / H_metric edge-case regressions ------------------ *)

let invalid_arg_with msg f =
  match f () with
  | exception Invalid_argument m ->
      Alcotest.(check string) "error message" msg m
  | _ -> Alcotest.fail ("expected Invalid_argument: " ^ msg)

let partition_validation () =
  let g = graph 3 [ c2p 1 0; c2p 2 1 ] in
  List.iter
    (fun model ->
      let policy = P.make model in
      (* Same message whatever the model: the security-1st path used to
         leak "Reach.compute: root = avoid" here. *)
      invalid_arg_with "Partition.compute: attacker = dst" (fun () ->
          Core.Partition.count g policy ~attacker:1 ~dst:1);
      invalid_arg_with "Partition.compute: attacker out of range" (fun () ->
          Core.Partition.count g policy ~attacker:7 ~dst:1);
      invalid_arg_with "Partition.compute: dst out of range" (fun () ->
          Core.Partition.count g policy ~attacker:1 ~dst:(-1)))
    P.all_models

let partition_lpk_cycle () =
  (* LPk under security 2nd needs an acyclic hierarchy and must say so. *)
  let g = graph 3 [ c2p 0 1; c2p 1 2; c2p 2 0 ] in
  let policy = P.make ~lp:(P.Lp_k 2) P.Security_second in
  match Core.Partition.count g policy ~attacker:2 ~dst:0 with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected Failure on a cyclic hierarchy"

let metric_pairs_edges () =
  (* Diagonal is excluded. *)
  let ps =
    Core.Metric.pairs ~attackers:[| 0; 1 |] ~dsts:[| 0; 1 |] ()
  in
  Alcotest.(check int) "diagonal excluded" 2 (Array.length ps);
  Array.iter
    (fun p ->
      Alcotest.(check bool)
        "m <> d" true
        (p.Core.Metric.attacker <> p.Core.Metric.dst))
    ps;
  (* max_pairs = 0 is a valid (empty) sample. *)
  let ps0 =
    Core.Metric.pairs ~rng:(Core.Rng.create 3) ~max_pairs:0
      ~attackers:[| 0; 1 |] ~dsts:[| 0; 1 |] ()
  in
  Alcotest.(check int) "max_pairs 0" 0 (Array.length ps0);
  (* Negative max_pairs is rejected up front, not via an Rng error. *)
  invalid_arg_with "Metric.pairs: max_pairs < 0" (fun () ->
      Core.Metric.pairs ~rng:(Core.Rng.create 3) ~max_pairs:(-1)
        ~attackers:[| 0; 1 |] ~dsts:[| 0; 1 |] ());
  (* Empty attacker set: no pairs, no rng needed even with max_pairs. *)
  let pse =
    Core.Metric.pairs ~max_pairs:5 ~attackers:[||] ~dsts:[| 0 |] ()
  in
  Alcotest.(check int) "empty attackers" 0 (Array.length pse)

let metric_empty_cases () =
  let g = graph 3 [ c2p 1 0; c2p 2 1 ] in
  let sec3 = P.make P.Security_third in
  (* No pairs: defined as zero bounds. *)
  let b = Core.Metric.h_metric g sec3 (Core.Deployment.empty 3) [||] in
  Alcotest.(check (float 0.)) "empty pairs lb" 0. b.Core.Metric.lb;
  Alcotest.(check (float 0.)) "empty pairs ub" 0. b.Core.Metric.ub;
  (* Empty deployment set built via make. *)
  let dep = Core.Deployment.make ~n:3 ~full:[||] () in
  Alcotest.(check int) "no secure ASes" 0 (Core.Deployment.count_secure dep);
  let ps = Core.Metric.pairs ~attackers:[| 2 |] ~dsts:[| 0 |] () in
  let be = Core.Metric.h_metric g sec3 dep ps in
  let b0 = Core.Metric.h_metric g sec3 (Core.Deployment.empty 3) ps in
  Alcotest.(check (float 0.)) "empty make = empty" b0.Core.Metric.lb
    be.Core.Metric.lb;
  (* All attackers equal the destination: zero pairs. *)
  let bd = Core.Metric.h_metric_per_dst g sec3 dep ~attackers:[| 0 |] ~dst:0 in
  Alcotest.(check (float 0.)) "m = d only" 0. bd.Core.Metric.lb

let attacker_inside_s =
  (* Securing the attacker itself never lets it forge a secure route:
     its announcements stay insecure for every model and deployment. *)
  qtest "attacker inside S gains no secure route" ~count:200 (fun seed ->
      let rng = Core.Rng.create seed in
      let g = random_graph rng ~max_n:20 in
      let n = G.n g in
      if n < 2 then true
      else begin
        let dst = Core.Rng.int rng n in
        let m = (dst + 1 + Core.Rng.int rng (n - 1)) mod n in
        (* Everyone deploys, including the attacker. *)
        let dep = Core.Deployment.make ~n ~full:(Array.init n Fun.id) () in
        let policy = random_policy rng in
        let out = E.compute g policy dep ~dst ~attacker:(Some m) in
        let ok = ref true in
        for v = 0 to n - 1 do
          if Core.Outcome.secure out v && Core.Outcome.to_m out v then
            ok := false
        done;
        !ok
      end)

let ws_reuse_after_larger_graph () =
  (* A workspace sized for a big graph must still compute small graphs
     exactly (stale slots beyond n must not leak in). *)
  let ws = E.Workspace.create 64 in
  let big = graph 8 [ c2p 1 0; c2p 2 1; c2p 3 2; c2p 4 3; c2p 5 4; c2p 6 5; c2p 7 6 ] in
  let sec3 = P.make P.Security_third in
  ignore (E.compute ~ws big sec3 (Core.Deployment.empty 8) ~dst:0 ~attacker:None);
  let small = graph 3 [ c2p 1 0; c2p 2 1 ] in
  let reused = E.compute ~ws small sec3 (Core.Deployment.empty 3) ~dst:0 ~attacker:None in
  let fresh = E.compute small sec3 (Core.Deployment.empty 3) ~dst:0 ~attacker:None in
  match outcome_mismatch fresh reused with
  | None -> ()
  | Some msg -> Alcotest.fail msg

let pool_size_one () =
  (* A width-1 pool takes the sequential path and must agree. *)
  let pool = Core.Parallel.Pool.create ~domains:1 () in
  Fun.protect
    ~finally:(fun () -> Core.Parallel.Pool.shutdown pool)
    (fun () ->
      Alcotest.(check int) "size" 1 (Core.Parallel.Pool.size pool);
      let xs = Array.init 17 Fun.id in
      let ys = Core.Parallel.Pool.map pool (fun x -> (2 * x) + 1) xs in
      Alcotest.(check (array int))
        "sequential map" (Array.map (fun x -> (2 * x) + 1) xs) ys)

let () =
  Alcotest.run "check"
    [
      ( "lint",
        [
          lint_accepts_random;
          lint_accepts_topogen;
          lint_accepts_ixp;
          Alcotest.test_case "edge rules" `Quick lint_edges_rules;
          lint_edges_guarantee;
        ] );
      ( "verify",
        [ verify_accepts_engine; thm_sec1_holds; thm_sec3_holds ] );
      ("determinism", [ determinism_clean ]);
      ( "mutants",
        mutant_tests
        @ [
            Alcotest.test_case "report clean" `Quick mutant_report_clean;
            Alcotest.test_case "partition gadgets clean unfaulted" `Quick
              partition_gadgets_clean;
          ] );
      ( "integration",
        [
          Alcotest.test_case "full run clean" `Quick full_run_clean;
          Alcotest.test_case "alloc gate clean" `Quick alloc_gate_clean;
          Alcotest.test_case "broken graph flagged" `Quick
            run_flags_broken_graph;
          Alcotest.test_case "enabled env" `Quick enabled_env;
        ] );
      ( "metric regressions",
        [
          Alcotest.test_case "partition validation" `Quick
            partition_validation;
          Alcotest.test_case "partition LPk cycle" `Quick partition_lpk_cycle;
          Alcotest.test_case "pairs edge cases" `Quick metric_pairs_edges;
          Alcotest.test_case "empty cases" `Quick metric_empty_cases;
          attacker_inside_s;
          Alcotest.test_case "workspace reuse after larger graph" `Quick
            ws_reuse_after_larger_graph;
          Alcotest.test_case "pool of one" `Quick pool_size_one;
        ] );
    ]
