(* Quickstart: generate a small Internet-like topology, attack a
   destination, and measure how much a partial S*BGP deployment helps
   under each security model.

   Run with:  dune exec examples/quickstart.exe *)

open Core

let () =
  (* 1. A reproducible synthetic AS-level topology. *)
  let result =
    Topogen.generate ~params:(Topogen.default_params ~n:2000) (Rng.create 7)
  in
  let g = result.Topogen.graph in
  let tiers = Topogen.tiers result in
  print_string (Tiers.summary g tiers);

  (* 2. Pick a victim destination (a content provider) and an attacker (a
     mid-sized ISP). *)
  let dst = result.Topogen.cps.(0) in
  let attacker = (Tiers.members tiers Tiers.T3).(0) in
  Printf.printf "\nvictim: AS %d (content provider), attacker: AS %d (Tier 3)\n"
    dst attacker;

  (* 3. Baseline: only origin authentication (S = {}).  The attacker
     announces the bogus path "m d" via legacy BGP (Section 3.1). *)
  let empty = Deployment.empty (Graph.n g) in
  let policy = Policy.make Policy.Security_second in
  let out = Engine.compute g policy empty ~dst ~attacker:(Some attacker) in
  let c = Metric.happy out in
  Printf.printf "baseline: %d/%d sources definitely keep a legitimate route\n"
    c.Metric.happy_lb c.Metric.sources;

  (* 4. Deploy S*BGP at the Tier 1s, Tier 2s, the content providers and
     all their stubs, and re-measure under the three security models.
     (The victim must deploy too — secure routes only exist toward secure
     destinations.) *)
  let dep =
    Deployment.with_cps g tiers
      (Deployment.tier1_tier2 g tiers ~n_t1:13 ~n_t2:100)
  in
  Printf.printf "deployment: %s\n" (Deployment.describe dep);
  List.iter
    (fun model ->
      let policy = Policy.make model in
      let out = Engine.compute g policy dep ~dst ~attacker:(Some attacker) in
      let c' = Metric.happy out in
      Printf.printf "  %-14s happy sources: %d -> %d (%+d)\n"
        (Policy.model_name model) c.Metric.happy_lb c'.Metric.happy_lb
        (c'.Metric.happy_lb - c.Metric.happy_lb))
    [ Policy.Security_first; Policy.Security_second; Policy.Security_third ];

  (* 5. Why so little?  Count the protocol downgrades (Section 3.2). *)
  let dg =
    (Phenomena.downgrades
       (Phenomena.word g (Policy.make Policy.Security_third) dep ~dst
          ~attackers:[| attacker |])).(0)
  in
  Printf.printf
    "under security 3rd, %d sources had secure routes and %d were downgraded \
     by the attack\n"
    dg.Phenomena.secure_normal dg.Phenomena.downgraded
