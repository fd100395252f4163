(* The H metric and the doomed/protectable/immune partitions. *)

open Core
open Test_helpers

let sec1 = Policy.make Policy.Security_first
let sec2 = Policy.make Policy.Security_second
let sec3 = Policy.make Policy.Security_third

let test_bounds_arith () =
  let a = { Metric.lb = 0.4; ub = 0.6 } and b = { Metric.lb = 0.1; ub = 0.2 } in
  let s = Metric.bounds_sub a b in
  Alcotest.(check (float 1e-9)) "sub lb" 0.2 s.Metric.lb;
  Alcotest.(check (float 1e-9)) "sub ub" 0.5 s.Metric.ub;
  let t = Metric.bounds_add a b in
  Alcotest.(check (float 1e-9)) "add lb" 0.5 t.Metric.lb;
  let h = Metric.bounds_scale 2. b in
  Alcotest.(check (float 1e-9)) "scale" 0.4 h.Metric.ub

let test_pp_bounds () =
  (* Collapse iff both endpoints render the same at 0.1pp precision; the
     old epsilon test (5e-4) conflated e.g. 0.12% and 0.16%. *)
  let pp lb ub = Metric.pp_bounds { Metric.lb; ub } in
  Alcotest.(check string) "distinct prints stay an interval" "[0.1%, 0.2%]"
    (pp 0.0012 0.0016);
  Alcotest.(check string) "same print collapses" "0.1%" (pp 0.0012 0.0013);
  Alcotest.(check string) "exact equality collapses" "50.0%" (pp 0.5 0.5);
  Alcotest.(check string) "wide interval" "[10.0%, 90.0%]" (pp 0.1 0.9)

let test_progress () =
  let rng = Core.Rng.create 5 in
  let g = random_graph rng ~max_n:25 in
  let n = Graph.n g in
  let pairs =
    Metric.pairs
      ~attackers:(Core.Rng.sample_without_replacement rng (min 4 n) n)
      ~dsts:(Core.Rng.sample_without_replacement rng (min 4 n) n)
      ()
  in
  let dep = random_deployment rng n in
  (* Sequential: one tick per pair, [done] exact and final. *)
  let ticks = ref 0 and last = ref (0, 0) in
  ignore
    (Metric.h_metric
       ~progress:(fun d t ->
         incr ticks;
         last := (d, t))
       g sec2 dep pairs);
  Alcotest.(check int) "sequential ticks once per pair" (Array.length pairs)
    !ticks;
  Alcotest.(check (pair int int))
    "sequential finishes at total"
    (Array.length pairs, Array.length pairs)
    !last;
  (* Pooled: the callback still ticks (caller steals some work), never
     from a worker domain, and [done] never exceeds [total]. *)
  let pool = Core.Parallel.Pool.create ~domains:2 () in
  Fun.protect
    ~finally:(fun () -> Core.Parallel.Pool.shutdown pool)
    (fun () ->
      let caller = (Domain.self () :> int) in
      let pool_ticks = ref 0 and ok = ref true in
      ignore
        (Metric.h_metric ~pool
           ~progress:(fun d t ->
             incr pool_ticks;
             if (Domain.self () :> int) <> caller then ok := false;
             if d > t then ok := false)
           g sec2 dep pairs);
      Alcotest.(check bool) "pooled progress ticks from the caller" true
        (!pool_ticks > 0 && !pool_ticks <= Array.length pairs && !ok))

let test_happy_counts () =
  (* Figure 2 graph, security 3rd, S = {}: sources 1,2,3,5; under attack
     by 4: AS 3 is on the attack path (doomed), 2 doomed, 1 doomed
     (4-hop peer beats nothing else... 1's options: provider route len 1
     vs peer route len 4: LP prefers peer!  So 1 unhappy), 5 happy. *)
  let g =
    graph 6 [ c2p 1 0; p2p 1 2; p2p 2 0; c2p 3 2; c2p 4 3; c2p 5 0 ]
  in
  let out = Engine.compute g sec3 (Deployment.empty 6) ~dst:0 ~attacker:(Some 4) in
  let c = Metric.happy out in
  Alcotest.(check int) "sources" 4 c.Metric.sources;
  Alcotest.(check int) "happy lb" 1 c.Metric.happy_lb;
  Alcotest.(check int) "happy ub" 1 c.Metric.happy_ub

let test_pairs () =
  let ps = Metric.pairs ~attackers:[| 0; 1 |] ~dsts:[| 0; 2 |] () in
  Alcotest.(check int) "diagonal removed" 3 (Array.length ps);
  let rng = Rng.create 1 in
  let sampled =
    Metric.pairs ~rng ~max_pairs:2 ~attackers:[| 0; 1; 2 |] ~dsts:[| 3; 4; 5 |] ()
  in
  Alcotest.(check int) "sampled size" 2 (Array.length sampled)

let test_pairs_requires_rng () =
  Alcotest.check_raises "no rng" (Invalid_argument "Metric.pairs: sampling requires ~rng")
    (fun () ->
      ignore (Metric.pairs ~max_pairs:1 ~attackers:[| 0; 1 |] ~dsts:[| 2 |] ()))

let test_lb_below_ub =
  qtest "metric lower bound <= upper bound" ~count:100 (fun seed ->
      let rng = Rng.create seed in
      let g = random_graph rng ~max_n:30 in
      let n = Graph.n g in
      let dep = random_deployment rng n in
      let policy = random_policy rng in
      let attackers = Rng.sample_without_replacement rng (min 3 n) n in
      let dsts = Rng.sample_without_replacement rng (min 3 n) n in
      let ps = Metric.pairs ~attackers ~dsts () in
      if Array.length ps = 0 then true
      else begin
        let b = Metric.h_metric g policy dep ps in
        b.Metric.lb <= b.Metric.ub +. 1e-9
      end)

(* The baseline metric H(emptyset) is model-independent: with no secure
   AS, the SecP step never fires. *)
let test_baseline_model_independent =
  qtest "baseline metric is model independent" ~count:100 (fun seed ->
      let rng = Rng.create seed in
      let g = random_graph rng ~max_n:30 in
      let n = Graph.n g in
      let dep = Deployment.empty n in
      let dst = Rng.int rng n and m = Rng.int rng n in
      if m = dst then true
      else begin
        let out p = Engine.compute g p dep ~dst ~attacker:(Some m) in
        let h p = Metric.happy (out p) in
        h sec1 = h sec2 && h sec2 = h sec3
      end)

(* Partition soundness: immune ASes are happy and doomed ASes unhappy in
   EVERY deployment (spot-checked with random deployments). *)
let test_partition_soundness =
  qtest "immune always happy, doomed never happy" ~count:150 (fun seed ->
      let rng = Rng.create seed in
      let g = random_graph rng ~max_n:25 in
      let n = Graph.n g in
      let dst = Rng.int rng n and m = Rng.int rng n in
      if m = dst then true
      else begin
        let policy =
          match Rng.int rng 4 with
          | 0 -> sec1
          | 1 -> sec2
          | 2 -> sec3
          | _ -> Policy.make ~lp:(Policy.Lp_k (1 + Rng.int rng 3))
                   (match Rng.int rng 2 with
                   | 0 -> Policy.Security_second
                   | _ -> Policy.Security_third)
        in
        let classes = Partition.compute g policy ~attacker:m ~dst in
        let ok = ref true in
        for _ = 1 to 4 do
          let dep = random_deployment rng n in
          let out = Engine.compute g policy dep ~dst ~attacker:(Some m) in
          for v = 0 to n - 1 do
            if v <> dst && v <> m then begin
              match classes.(v) with
              | Partition.Immune ->
                  if not (Outcome.happy_lb out v) then begin
                    Printf.eprintf "seed %d: immune %d unhappy (%s)\n%!" seed v
                      (Policy.name policy);
                    ok := false
                  end
              | Partition.Doomed ->
                  if Outcome.happy_ub out v then begin
                    Printf.eprintf "seed %d: doomed %d happy (%s)\n%!" seed v
                      (Policy.name policy);
                    ok := false
                  end
              | Partition.Unreachable ->
                  if Outcome.reached out v then begin
                    Printf.eprintf "seed %d: unreachable %d reached (%s)\n%!"
                      seed v (Policy.name policy);
                    ok := false
                  end
              | Partition.Protectable -> ()
            end
          done
        done;
        !ok
      end)

(* Counting consistency. *)
let test_partition_counts =
  qtest "partition counts sum to sources" ~count:100 (fun seed ->
      let rng = Rng.create seed in
      let g = random_graph rng ~max_n:30 in
      let n = Graph.n g in
      let dst = Rng.int rng n and m = Rng.int rng n in
      if m = dst then true
      else begin
        let c = Partition.count g sec2 ~attacker:m ~dst in
        c.Partition.sources = n - 2
        && c.Partition.doomed + c.Partition.protectable + c.Partition.immune
           + c.Partition.unreachable
           = c.Partition.sources
      end)

(* Protectable ASes really are protectable in the security 1st model:
   securing everything makes every non-doomed, reachable AS happy. *)
let test_protectable_sec1 =
  qtest "sec1: full deployment rescues all protectable ASes" ~count:150
    (fun seed ->
      let rng = Rng.create seed in
      let g = random_graph rng ~max_n:25 in
      let n = Graph.n g in
      let dst = Rng.int rng n and m = Rng.int rng n in
      if m = dst then true
      else begin
        let classes = Partition.compute g sec1 ~attacker:m ~dst in
        let full =
          Deployment.of_modes (Array.make n Deployment.Full)
        in
        let out = Engine.compute g sec1 full ~dst ~attacker:(Some m) in
        let ok = ref true in
        for v = 0 to n - 1 do
          if v <> dst && v <> m then
            match classes.(v) with
            | Partition.Protectable | Partition.Immune ->
                if not (Outcome.happy_lb out v) then ok := false
            | Partition.Doomed | Partition.Unreachable -> ()
        done;
        !ok
      end)

(* Partition fractions feed the Figure 3 bounds: upper bound on H(S) =
   1 - doomed fraction; the metric for random S must respect it. *)
let test_partition_bounds_metric =
  qtest "H(S) within partition-derived bounds" ~count:100 (fun seed ->
      let rng = Rng.create seed in
      let g = random_graph rng ~max_n:25 in
      let n = Graph.n g in
      let dst = Rng.int rng n and m = Rng.int rng n in
      if m = dst then true
      else begin
        let policy = List.nth [ sec1; sec2; sec3 ] (Rng.int rng 3) in
        let c = Partition.count g policy ~attacker:m ~dst in
        let doomed_frac, _, immune_frac = Partition.fractions c in
        let dep = random_deployment rng n in
        let out = Engine.compute g policy dep ~dst ~attacker:(Some m) in
        let h = Metric.to_bounds (Metric.happy out) in
        h.Metric.ub <= 1. -. doomed_frac +. 1e-9
        && h.Metric.lb >= immune_frac -. 1e-9
      end)

let test_h_metric_per_dst () =
  let g = graph 3 [ c2p 1 0; c2p 2 1 ] in
  let b =
    Metric.h_metric_per_dst g sec3 (Deployment.empty 3) ~attackers:[| 2; 0 |]
      ~dst:0
  in
  (* Only attacker 2 counts (0 = dst skipped).  Source AS 1: legit
     provider route len 1 vs bogus customer route len 2 via its customer
     2: LP prefers customer: unhappy. *)
  Alcotest.(check (float 1e-9)) "lb" 0.0 b.Metric.lb;
  Alcotest.(check (float 1e-9)) "ub" 0.0 b.Metric.ub

(* The decisive partition test: on tiny graphs, enumerate EVERY full/off
   deployment and check that the partition quantifies correctly over all
   of them — immune ASes are happy in every deployment, doomed in none,
   and protectable ASes see both outcomes (in bounds semantics, counting
   an AS as happy when some tiebreak makes it so). *)
let test_partition_exhaustive =
  qtest "partition = quantification over all deployments" ~count:60
    (fun seed ->
      let rng = Rng.create seed in
      let g = random_graph rng ~max_n:9 in
      let n = Graph.n g in
      let dst = Rng.int rng n and m = Rng.int rng n in
      if m = dst then true
      else begin
        let policy =
          match Rng.int rng 4 with
          | 0 -> sec1
          | 1 -> sec2
          | 2 -> sec3
          | _ ->
              Policy.make
                ~lp:(Policy.Lp_k (1 + Rng.int rng 2))
                (if Rng.bool rng then Policy.Security_second
                 else Policy.Security_third)
        in
        let classes = Partition.compute g policy ~attacker:m ~dst in
        (* ever_happy / ever_unhappy per source, over all 2^n secure
           sets. *)
        let ever_happy = Array.make n false in
        let ever_unhappy = Array.make n false in
        for mask = 0 to (1 lsl n) - 1 do
          let modes =
            Array.init n (fun v ->
                if mask land (1 lsl v) <> 0 then Deployment.Full
                else Deployment.Off)
          in
          let dep = Deployment.of_modes modes in
          let out = Engine.compute g policy dep ~dst ~attacker:(Some m) in
          for v = 0 to n - 1 do
            if v <> dst && v <> m then begin
              (* Bounds semantics: happy if some tiebreak reaches d,
                 unhappy if some tiebreak reaches m (or no route). *)
              if Outcome.happy_ub out v then ever_happy.(v) <- true;
              if not (Outcome.happy_lb out v) then ever_unhappy.(v) <- true
            end
          done
        done;
        let ok = ref true in
        for v = 0 to n - 1 do
          if v <> dst && v <> m then begin
            let fine =
              match classes.(v) with
              | Partition.Immune -> not ever_unhappy.(v)
              | Partition.Doomed -> not ever_happy.(v)
              | Partition.Protectable -> (
                  (* Under security 2nd, "protectable" is an
                     over-approximation (see Partition's documentation):
                     a class-compatible perceivable route may never be
                     chosen upstream.  Under 1st and 3rd the partition is
                     exact, so a protectable AS must be rescuable. *)
                  match (policy : Policy.t).model with
                  | Policy.Security_second -> true
                  | Policy.Security_first | Policy.Security_third ->
                      ever_happy.(v))
              | Partition.Unreachable ->
                  (not ever_happy.(v)) && ever_unhappy.(v)
            in
            if not fine then begin
              Printf.eprintf
                "seed %d: AS %d classified %s but ever_happy=%b ever_unhappy=%b (%s)\n%!"
                seed v
                (match classes.(v) with
                | Partition.Immune -> "immune"
                | Partition.Doomed -> "doomed"
                | Partition.Protectable -> "protectable"
                | Partition.Unreachable -> "unreachable")
                ever_happy.(v) ever_unhappy.(v) (Policy.name policy);
              ok := false
            end
          end
        done;
        !ok
      end)

(* The batched default path of h_metric (destination-major lane words)
   must be bit-identical — exact float equality — to the scalar
   per-pair fold, for random policies, deployments and pair sets with
   shared destinations. *)
let test_batched_h_metric_identity =
  qtest "batched h_metric = scalar per-pair fold" ~count:150 (fun seed ->
      let rng = Rng.create seed in
      let g = random_graph rng ~max_n:30 in
      let n = Graph.n g in
      let dep = random_deployment rng n in
      let policy = random_policy rng in
      let pairs =
        Metric.pairs
          ~attackers:(Rng.sample_without_replacement rng (min 6 n) n)
          ~dsts:(Rng.sample_without_replacement rng (min 5 n) n)
          ()
      in
      Array.length pairs = 0
      ||
      let got = Metric.h_metric g policy dep pairs in
      let lb = ref 0. and ub = ref 0. in
      Array.iter
        (fun p ->
          let b = Metric.pair_bounds g policy dep p in
          lb := !lb +. b.Metric.lb;
          ub := !ub +. b.Metric.ub)
        pairs;
      let total = float_of_int (Array.length pairs) in
      got.Metric.lb = !lb /. total && got.Metric.ub = !ub /. total)

(* A whole 63-lane word: one destination against 63 attackers on a
   generated graph of 80-119 ASes, so lanes 6..62 (the sign bit
   included) are folded too.  Exact float equality with the scalar
   per-pair fold, every model, standard LP and LP2. *)
let test_batched_h_metric_full_word =
  qtest "batched h_metric = scalar fold on a full 63-lane word" ~count:20
    (fun seed ->
      let rng = Rng.create seed in
      let n = 80 + Rng.int rng 40 in
      let g =
        (Topogen.generate ~params:(Topogen.default_params ~n) rng).Topogen.graph
      in
      let dep = random_deployment rng n in
      let picked = Rng.sample_without_replacement rng (Batch.max_lanes + 1) n in
      let dst = picked.(0) in
      let pairs =
        Array.init Batch.max_lanes (fun i ->
            { Metric.attacker = picked.(i + 1); dst })
      in
      List.for_all
        (fun policy ->
          let got = Metric.h_metric g policy dep pairs in
          let lb = ref 0. and ub = ref 0. in
          Array.iter
            (fun p ->
              let b = Metric.pair_bounds g policy dep p in
              lb := !lb +. b.Metric.lb;
              ub := !ub +. b.Metric.ub)
            pairs;
          let total = float_of_int (Array.length pairs) in
          Float.equal got.Metric.lb (!lb /. total)
          && Float.equal got.Metric.ub (!ub /. total))
        (List.concat_map
           (fun lp -> List.map (fun m -> Policy.make ~lp m) Policy.all_models)
           Policy.[ Standard; Lp_k 2 ]))

(* batch_plan covers each input position exactly once, groups by the
   position's destination and never exceeds the lane bound. *)
let test_batch_plan =
  qtest "batch_plan partitions the pair positions" ~count:200 (fun seed ->
      let rng = Rng.create seed in
      let npairs = 1 + Rng.int rng 300 in
      let pairs =
        Array.init npairs (fun _ ->
            {
              Metric.attacker = Rng.int rng 20;
              dst = 100 + Rng.int rng 5 (* few dsts: forces chunking *);
            })
      in
      let items = Metric.batch_plan pairs in
      let seen = Array.make npairs 0 in
      let ok = ref true in
      Array.iter
        (fun (dst, attackers, pos) ->
          if Array.length pos = 0 || Array.length pos > Batch.max_lanes then
            ok := false;
          if Array.length attackers <> Array.length pos then ok := false;
          Array.iteri
            (fun l j ->
              seen.(j) <- seen.(j) + 1;
              if pairs.(j).Metric.dst <> dst then ok := false;
              if pairs.(j).Metric.attacker <> attackers.(l) then ok := false)
            pos)
        items;
      !ok && Array.for_all (fun c -> c = 1) seen)

(* Per-lane partition counts off one batched solve = per-pair counts,
   security 3rd under both LP variants. *)
let test_sec3_count_batch =
  qtest "sec3 batched partition counts = per-pair counts" ~count:150
    (fun seed ->
      let rng = Rng.create seed in
      let g = random_graph rng ~max_n:30 in
      let n = Graph.n g in
      let dst = Rng.int rng n in
      let lanes = 1 + Rng.int rng (min 8 (n - 1)) in
      let attackers =
        Array.init lanes (fun _ ->
            let m = Rng.int rng (n - 1) in
            if m >= dst then m + 1 else m)
      in
      let policy =
        if Rng.bool rng then sec3
        else Policy.make ~lp:(Policy.Lp_k (1 + Rng.int rng 3)) Policy.Security_third
      in
      let batch = Partition.sec3_count_batch g policy ~dst ~attackers in
      let ok = ref true in
      Array.iteri
        (fun l m ->
          let want = Partition.count g policy ~attacker:m ~dst in
          if want <> batch.(l) then ok := false)
        attackers;
      !ok)

(* Every model and LP variant the partition layer classifies under. *)
let partition_policies =
  let lp k m = Policy.make ~lp:(Policy.Lp_k k) m in
  [|
    sec1; sec2; sec3;
    lp 1 Policy.Security_second; lp 2 Policy.Security_second;
    lp 60 Policy.Security_second; lp 2 Policy.Security_first;
    lp 2 Policy.Security_third;
  |]

(* One destination, 1-63 attacker lanes (repeats allowed), a random
   policy, and a random source subset half the time. *)
let random_batch rng =
  let g = random_graph rng ~max_n:30 in
  let n = Graph.n g in
  let dst = Rng.int rng n in
  let lanes = 1 + Rng.int rng Batch.max_lanes in
  let attackers =
    Array.init lanes (fun _ ->
        let m = Rng.int rng (n - 1) in
        if m >= dst then m + 1 else m)
  in
  let policy =
    partition_policies.(Rng.int rng (Array.length partition_policies))
  in
  (g, policy, dst, attackers)

(* A random nonempty subset of {sec1, sec2, sec3} x {Std, LP1, LP2,
   LP60}, in random order: one [count_batch] call mixes models and
   variants, so it exercises the shared solves and closures. *)
let random_policies rng =
  let all =
    List.concat_map
      (fun lp -> List.map (fun m -> Policy.make ~lp m) Policy.all_models)
      Policy.[ Standard; Lp_k 1; Lp_k 2; Lp_k 60 ]
  in
  let picked = List.filter (fun _ -> Rng.int rng 3 = 0) all in
  let picked =
    if picked = [] then [ List.nth all (Rng.int rng (List.length all)) ]
    else picked
  in
  let keyed = List.map (fun p -> (Rng.int rng 1000, p)) picked in
  List.map snd (List.sort (fun (a, _) (b, _) -> Int.compare a b) keyed)

(* The batched partition counts = per-pair {!Partition.count}, lane by
   lane, for every policy of a multi-policy call. *)
let test_count_batch =
  qtest "batched partition counts = per-pair counts, every model"
    ~count:300 (fun seed ->
      let rng = Rng.create seed in
      let g, _, dst, attackers = random_batch rng in
      let policies = random_policies rng in
      let batch = Partition.count_batch g policies ~dst ~attackers in
      Array.length batch = List.length policies
      && List.for_all2
           (fun policy got ->
             Array.length got = 1
             && Array.length got.(0) = Array.length attackers
             && Array.for_all2
                  (fun m got -> got = Partition.count g policy ~attacker:m ~dst)
                  attackers got.(0))
           policies (Array.to_list batch))

(* Random source groups (-1 = not a source): each group's counts =
   per-pair {!Partition.count_among} over the group's members. *)
let test_count_batch_sources =
  qtest "batched partition counts among sources = per-pair, every model"
    ~count:300 (fun seed ->
      let rng = Rng.create seed in
      let g, policy, dst, attackers = random_batch rng in
      let n = Graph.n g in
      let k = 1 + Rng.int rng 4 in
      let ids = Array.init n (fun _ -> Rng.int rng (k + 1) - 1) in
      let policies =
        if Rng.bool rng then [ policy ] else random_policies rng
      in
      let batch =
        Partition.count_batch ~groups:(ids, k) g policies ~dst ~attackers
      in
      List.for_all2
        (fun policy got ->
          Array.length got = k
          && List.for_all
               (fun grp ->
                 let sources =
                   Array.of_list
                     (List.filter (fun v -> ids.(v) = grp) (List.init n Fun.id))
                 in
                 Array.for_all2
                   (fun m got ->
                     got
                     = Partition.count_among g policy ~attacker:m ~dst ~sources)
                   attackers got.(grp))
               (List.init k Fun.id))
        policies (Array.to_list batch))

(* The H(emptyset) line read off the shared security-3rd lane counts is
   bit-identical to {!Metric.h_metric} at the empty deployment, under
   the standard LP and LP2, whichever policies share the call. *)
let test_partition_h_empty =
  qtest "partition-derived H(emptyset) = h_metric, Std and LP2" ~count:150
    (fun seed ->
      let rng = Rng.create seed in
      let g = random_graph rng ~max_n:30 in
      let n = Graph.n g in
      let draw () =
        Rng.sample_without_replacement rng (1 + Rng.int rng (min 6 n)) n
      in
      let pairs = Metric.pairs ~attackers:(draw ()) ~dsts:(draw ()) () in
      let lp = if Rng.bool rng then Policy.Standard else Policy.Lp_k 2 in
      let policies = random_policies rng in
      let totals =
        Experiments.Util.partition_totals ~h_empty:lp g policies pairs
      in
      let want =
        Metric.h_metric g (Policy.make ~lp Policy.Security_third)
          (Deployment.empty n) pairs
      in
      match totals.Experiments.Util.h_empty with
      | Some got ->
          Float.equal got.Metric.lb want.Metric.lb
          && Float.equal got.Metric.ub want.Metric.ub
      | None -> false)

let test_count_batch_errors () =
  let g = graph 3 [ c2p 0 1; c2p 1 2 ] in
  let raises msg f =
    Alcotest.check_raises msg (Invalid_argument ("Partition.count_batch: " ^ msg))
      (fun () -> ignore (f ()))
  in
  raises "lane count out of range" (fun () ->
      Partition.count_batch g [ sec2 ] ~dst:0 ~attackers:[||]);
  raises "attacker = dst" (fun () ->
      Partition.count_batch g [ sec2 ] ~dst:0 ~attackers:[| 1; 0 |]);
  raises "attacker out of range" (fun () ->
      Partition.count_batch g [ sec2 ] ~dst:0 ~attackers:[| 3 |]);
  raises "dst out of range" (fun () ->
      Partition.count_batch g [ sec2 ] ~dst:(-1) ~attackers:[| 1 |]);
  raises "group array length <> n" (fun () ->
      Partition.count_batch ~groups:([| 0; 0 |], 1) g [ sec2 ] ~dst:0
        ~attackers:[| 1 |]);
  raises "group count < 0" (fun () ->
      Partition.count_batch ~groups:([| -1; -1; -1 |], -1) g [ sec2 ] ~dst:0
        ~attackers:[| 1 |]);
  raises "group id out of range" (fun () ->
      Partition.count_batch ~groups:([| 0; 2; 0 |], 2) g [ sec2 ] ~dst:0
        ~attackers:[| 1 |]);
  (* LPk needs an acyclic hierarchy: the same Failure as the oracle. *)
  let cyclic = graph 3 [ c2p 0 1; c2p 1 2; c2p 2 0 ] in
  let lp2 = Policy.make ~lp:(Policy.Lp_k 2) Policy.Security_second in
  let cycle = Failure "Partition: customer-provider hierarchy has a cycle" in
  Alcotest.check_raises "oracle rejects a cycle" cycle (fun () ->
      ignore (Partition.count cyclic lp2 ~attacker:1 ~dst:0));
  Alcotest.check_raises "batch rejects a cycle" cycle (fun () ->
      ignore (Partition.count_batch cyclic [ sec1; lp2 ] ~dst:0 ~attackers:[| 1 |]))

let () =
  Alcotest.run "metric"
    [
      ( "h metric",
        [
          Alcotest.test_case "bounds arithmetic" `Quick test_bounds_arith;
          Alcotest.test_case "pp_bounds precision boundary" `Quick
            test_pp_bounds;
          Alcotest.test_case "progress reporting" `Quick test_progress;
          Alcotest.test_case "happy counts" `Quick test_happy_counts;
          Alcotest.test_case "pairs" `Quick test_pairs;
          Alcotest.test_case "pairs requires rng" `Quick test_pairs_requires_rng;
          Alcotest.test_case "per-destination metric" `Quick test_h_metric_per_dst;
          test_lb_below_ub;
          test_baseline_model_independent;
          test_batched_h_metric_identity;
          test_batch_plan;
          test_batched_h_metric_full_word;
        ] );
      ( "partitions",
        [
          test_partition_soundness;
          test_partition_exhaustive;
          test_partition_counts;
          test_protectable_sec1;
          test_partition_bounds_metric;
          test_sec3_count_batch;
          test_count_batch;
          test_count_batch_sources;
          test_partition_h_empty;
          Alcotest.test_case "batched count errors" `Quick
            test_count_batch_errors;
        ] );
    ]
