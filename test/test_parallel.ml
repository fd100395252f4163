(* Domain-based parallel map. *)

open Core

let test_map_matches_sequential () =
  let items = Array.init 1000 (fun i -> i) in
  let f x = (x * x) + 1 in
  List.iter
    (fun domains ->
      Alcotest.(check (array int))
        (Printf.sprintf "domains=%d" domains)
        (Array.map f items)
        (Parallel.map ~domains f items))
    [ 1; 2; 3; 7 ]

let test_map_empty () =
  Alcotest.(check (array int)) "empty" [||]
    (Parallel.map ~domains:4 (fun x -> x) [||])

let test_map_single () =
  Alcotest.(check (array int)) "singleton" [| 42 |]
    (Parallel.map ~domains:4 (fun x -> x + 41) [| 1 |])

let test_map_reduce () =
  let items = Array.init 100 (fun i -> i + 1) in
  Alcotest.(check int) "sum 1..100" 5050
    (Parallel.map_reduce ~domains:3 ~map:Fun.id ~combine:( + ) 0 items)

let test_parallel_metric_agrees () =
  (* h_metric with domains must equal the sequential result exactly. *)
  let r = Topogen.generate ~params:(Topogen.default_params ~n:1200) (Rng.create 4) in
  let g = r.Topogen.graph in
  let rng = Rng.create 5 in
  let n = Graph.n g in
  let attackers = Rng.sample_without_replacement rng 6 n in
  let dsts = Rng.sample_without_replacement rng 6 n in
  let pairs = Metric.pairs ~attackers ~dsts () in
  let policy = Policy.make Policy.Security_second in
  let dep = Deployment.empty n in
  let seq = Metric.h_metric g policy dep pairs in
  let par = Metric.h_metric ~domains:3 g policy dep pairs in
  Alcotest.(check (float 1e-12)) "lb" seq.Metric.lb par.Metric.lb;
  Alcotest.(check (float 1e-12)) "ub" seq.Metric.ub par.Metric.ub

let test_default_domains () =
  Alcotest.(check bool) "positive" true (Parallel.default_domains () >= 1)

let test_pool_reuse () =
  (* One persistent pool serving many maps of different shapes. *)
  let pool = Parallel.Pool.create ~domains:3 () in
  Fun.protect
    ~finally:(fun () -> Parallel.Pool.shutdown pool)
    (fun () ->
      Alcotest.(check int) "size" 3 (Parallel.Pool.size pool);
      List.iter
        (fun n ->
          let items = Array.init n (fun i -> i) in
          let f x = (x * 3) - 7 in
          Alcotest.(check (array int))
            (Printf.sprintf "n=%d" n)
            (Array.map f items)
            (Parallel.Pool.map pool f items))
        [ 0; 1; 2; 17; 1000; 5 ])

let test_pool_nested () =
  (* A map launched from inside a pool worker must not deadlock; it
     degrades to sequential execution and still returns exact results. *)
  let pool = Parallel.Pool.create ~domains:2 () in
  Fun.protect
    ~finally:(fun () -> Parallel.Pool.shutdown pool)
    (fun () ->
      let outer = Array.init 8 (fun i -> i) in
      let expected =
        Array.map (fun i -> Array.init 10 (fun j -> (i * 10) + j)) outer
      in
      let got =
        Parallel.map ~pool
          (fun i ->
            Parallel.map ~pool (fun j -> (i * 10) + j) (Array.init 10 Fun.id))
          outer
      in
      Alcotest.(check int) "rows" (Array.length expected) (Array.length got);
      Array.iteri
        (fun i row -> Alcotest.(check (array int)) "row" expected.(i) row)
        got)

let test_pool_exception () =
  let pool = Parallel.Pool.create ~domains:3 () in
  Fun.protect
    ~finally:(fun () -> Parallel.Pool.shutdown pool)
    (fun () ->
      let items = Array.init 100 (fun i -> i) in
      (try
         ignore
           (Parallel.Pool.map pool
              (fun x -> if x = 63 then failwith "boom" else x)
              items);
         Alcotest.fail "expected exception"
       with Failure msg -> Alcotest.(check string) "msg" "boom" msg);
      (* The pool survives a failed map. *)
      Alcotest.(check (array int))
        "after failure" (Array.map succ items)
        (Parallel.Pool.map pool succ items))

let test_pool_metric_agrees () =
  (* Seeded end-to-end check: h_metric through an explicit pool of 4
     domains must equal the sequential result exactly (not within a
     tolerance - the reduction order is identical by construction). *)
  let r =
    Topogen.generate ~params:(Topogen.default_params ~n:900) (Rng.create 11)
  in
  let g = r.Topogen.graph in
  let rng = Rng.create 12 in
  let n = Graph.n g in
  let attackers = Rng.sample_without_replacement rng 7 n in
  let dsts = Rng.sample_without_replacement rng 7 n in
  let pairs = Metric.pairs ~attackers ~dsts () in
  (* The empty deployment collapses the three models onto one outcome;
     the Tier 1+2 rollout point keeps them apart. *)
  let deps =
    [
      ("empty", Deployment.empty n);
      ( "T1+T2",
        Deployment.tier1_tier2 g (Topogen.tiers r) ~n_t1:13 ~n_t2:50 );
    ]
  in
  let pool = Parallel.Pool.create ~domains:4 () in
  Fun.protect
    ~finally:(fun () -> Parallel.Pool.shutdown pool)
    (fun () ->
      List.iter
        (fun (dname, dep) ->
          List.iter
            (fun model ->
              let policy = Policy.make model in
              let seq = Metric.h_metric g policy dep pairs in
              let par = Metric.h_metric ~pool g policy dep pairs in
              Alcotest.(check bool)
                (Policy.name policy ^ " " ^ dname ^ " identical")
                true (seq = par))
            Policy.[ Security_first; Security_second; Security_third ])
        deps)

let outcomes_equal a b =
  let n = Outcome.n a in
  Outcome.n b = n
  && Outcome.dst a = Outcome.dst b
  && Outcome.attacker a = Outcome.attacker b
  &&
  let ok = ref true in
  let root v = v = Outcome.dst a || Outcome.attacker a = Some v in
  for v = 0 to n - 1 do
    if
      Outcome.reached a v <> Outcome.reached b v
      || (Outcome.reached a v && (not (root v))
         && (Outcome.length a v <> Outcome.length b v
            || Outcome.route_class a v <> Outcome.route_class b v
            || Outcome.next_hop a v <> Outcome.next_hop b v))
      || Outcome.secure a v <> Outcome.secure b v
      || Outcome.to_d a v <> Outcome.to_d b v
      || Outcome.to_m a v <> Outcome.to_m b v
    then ok := false
  done;
  !ok

let test_workspace_agrees () =
  (* Engine.compute with a reused workspace must produce the same outcome
     as fresh allocation, across many pairs recycled through one ws. *)
  let r =
    Topogen.generate ~params:(Topogen.default_params ~n:700) (Rng.create 21)
  in
  let g = r.Topogen.graph in
  let n = Graph.n g in
  let tiers = Topogen.tiers r in
  let dep = Deployment.tier1_tier2 g tiers ~n_t1:5 ~n_t2:10 in
  let rng = Rng.create 22 in
  let vs = Rng.sample_without_replacement rng 12 n in
  let ws = Engine.Workspace.create 0 in
  List.iter
    (fun model ->
      let policy = Policy.make model in
      for i = 0 to Array.length vs - 2 do
        let dst = vs.(i) and attacker = vs.(i + 1) in
        let fresh = Engine.compute g policy dep ~dst ~attacker:(Some attacker) in
        let reused =
          Engine.compute ~ws g policy dep ~dst ~attacker:(Some attacker)
        in
        Alcotest.(check bool)
          (Printf.sprintf "%s dst=%d m=%d" (Policy.name policy) dst attacker)
          true
          (outcomes_equal fresh reused);
        (* No-attacker computes interleave to vary the reset pattern. *)
        let fresh0 = Engine.compute g policy dep ~dst ~attacker:None in
        let reused0 = Engine.compute ~ws g policy dep ~dst ~attacker:None in
        Alcotest.(check bool) "baseline" true (outcomes_equal fresh0 reused0)
      done)
    Policy.[ Security_first; Security_second; Security_third ]

let test_workspace_partition_agrees () =
  let r =
    Topogen.generate ~params:(Topogen.default_params ~n:700) (Rng.create 31)
  in
  let g = r.Topogen.graph in
  let n = Graph.n g in
  let rng = Rng.create 32 in
  let vs = Rng.sample_without_replacement rng 10 n in
  let ws = Engine.Workspace.create 0 in
  List.iter
    (fun model ->
      let policy = Policy.make model in
      for i = 0 to Array.length vs - 2 do
        let dst = vs.(i) and attacker = vs.(i + 1) in
        let plain = Partition.count g policy ~attacker ~dst in
        let reused = Partition.count ~ws g policy ~attacker ~dst in
        Alcotest.(check bool)
          (Printf.sprintf "%s dst=%d m=%d" (Policy.name policy) dst attacker)
          true (plain = reused)
      done)
    Policy.[ Security_first; Security_second; Security_third ]

let () =
  Alcotest.run "parallel"
    [
      ( "map",
        [
          Alcotest.test_case "matches sequential" `Quick
            test_map_matches_sequential;
          Alcotest.test_case "empty" `Quick test_map_empty;
          Alcotest.test_case "single" `Quick test_map_single;
          Alcotest.test_case "map_reduce" `Quick test_map_reduce;
          Alcotest.test_case "default domains" `Quick test_default_domains;
        ] );
      ( "pool",
        [
          Alcotest.test_case "reuse across maps" `Quick test_pool_reuse;
          Alcotest.test_case "nested map degrades" `Quick test_pool_nested;
          Alcotest.test_case "exception propagates" `Quick
            test_pool_exception;
        ] );
      ( "metric",
        [
          Alcotest.test_case "parallel metric agrees" `Quick
            test_parallel_metric_agrees;
          Alcotest.test_case "pool metric identical" `Quick
            test_pool_metric_agrees;
        ] );
      ( "workspace",
        [
          Alcotest.test_case "engine outcome identical" `Quick
            test_workspace_agrees;
          Alcotest.test_case "partition counts identical" `Quick
            test_workspace_partition_agrees;
        ] );
    ]
