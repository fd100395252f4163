(* Protocol downgrades, collateral benefits/damages, root causes
   (Section 6 of the paper). *)

open Core
open Test_helpers

let sec1 = Policy.make Policy.Security_first
let sec2 = Policy.make Policy.Security_second
let sec3 = Policy.make Policy.Security_third

(* The batched folds for one attacker: a one-attacker word per
   deployment. *)
let word g policy dep ~attacker ~dst =
  Phenomena.word g policy dep ~dst ~attackers:[| attacker |]

let downgrades g policy dep ~attacker ~dst =
  (Phenomena.downgrades (word g policy dep ~attacker ~dst)).(0)

let collateral g policy ~baseline ~deployment ~attacker ~dst =
  (Phenomena.collateral
     ~baseline:(word g policy baseline ~attacker ~dst)
     (word g policy deployment ~attacker ~dst)).(0)

let root_cause g policy dep ~attacker ~dst =
  let base = word g policy (Deployment.empty (Graph.n g)) ~attacker ~dst in
  (Phenomena.root_cause ~base (word g policy dep ~attacker ~dst)).(0)

(* Figure 2 downgrade quantified. *)
let test_downgrade_fig2 () =
  let g =
    graph 6 [ c2p 1 0; p2p 1 2; p2p 2 0; c2p 3 2; c2p 4 3; c2p 5 0 ]
  in
  let dep = Deployment.make ~n:6 ~full:[| 0; 1; 5 |] () in
  let dg2 = downgrades g sec2 dep ~attacker:4 ~dst:0 in
  (* Under normal conditions ASes 1 and 5 have secure routes. *)
  Alcotest.(check int) "secure normal" 2 dg2.Phenomena.secure_normal;
  (* Under attack, AS 1 downgrades (peer LP beats secure provider); the
     stub 5 keeps its secure route. *)
  Alcotest.(check int) "downgraded (sec2)" 1 dg2.Phenomena.downgraded;
  Alcotest.(check int) "secure after (sec2)" 1 dg2.Phenomena.secure_after;
  let dg1 = downgrades g sec1 dep ~attacker:4 ~dst:0 in
  Alcotest.(check int) "downgraded (sec1)" 0 dg1.Phenomena.downgraded

(* Collateral damage in the security 2nd model (the Figure 14 mechanism):
   a secure provider chooses a longer secure route, pushing its insecure
   customer onto the bogus path.
   ids: d=0, x=1 (insecure middle), u=2 (secure ISP), c1=3, c2=4 (secure
   chain), v=5 (victim customer of u), w=6 (v's other provider),
   m=7 (attacker, customer of w). *)
let damage_graph () =
  graph 8
    [
      c2p 0 1 (* d customer of x *);
      c2p 1 2 (* x customer of u *);
      c2p 0 3 (* d customer of c1 *);
      c2p 3 4 (* c1 customer of c2 *);
      c2p 4 2 (* c2 customer of u *);
      c2p 5 2 (* v customer of u *);
      c2p 5 6 (* v customer of w *);
      c2p 7 6 (* m customer of w *);
    ]

let test_collateral_damage_sec2 () =
  let g = damage_graph () in
  let s = Deployment.make ~n:8 ~full:[| 0; 2; 3; 4 |] () in
  let empty = Deployment.empty 8 in
  (* Baseline: u picks the short insecure customer route (len 2 via x);
     v's provider route via u is len 3, beating the bogus len 3 via w...
     both len 3!  Make sure: v via u = 1 + u.len = 3; v via w = 1 +
     w.len; w picks the bogus customer route (m,d) len 2, so v via w is
     len 3 — a tie.  To get strict baseline happiness u must pick the
     direct customer route d (len 1).  Rebuild: x IS d.  We instead check
     with the deployment-free engine directly. *)
  let base = Engine.compute g sec2 empty ~dst:0 ~attacker:(Some 7) in
  let dep = Engine.compute g sec2 s ~dst:0 ~attacker:(Some 7) in
  (* Baseline: u len 2 insecure; v provider routes: via u len 3 to d,
     via w len 3 to m: tie -> not definitely happy.  With S: u takes the
     secure len 3 route, v's legit option becomes len 4: strictly worse —
     v definitely unhappy. *)
  Alcotest.(check int) "u baseline length" 2 (Outcome.length base 2);
  Alcotest.(check int) "u secure length" 3 (Outcome.length dep 2);
  Alcotest.(check bool) "u secure" true (Outcome.secure dep 2);
  Alcotest.(check bool) "v had a legitimate option" true (Outcome.to_d base 5);
  Alcotest.(check bool) "v loses it: to_d gone" false (Outcome.to_d dep 5);
  Alcotest.(check bool) "v unhappy (collateral damage)" true
    (Outcome.to_m dep 5 && not (Outcome.to_d dep 5));
  (* Theorem 6.1: no such damage under security 3rd. *)
  let base3 = Engine.compute g sec3 empty ~dst:0 ~attacker:(Some 7) in
  let dep3 = Engine.compute g sec3 s ~dst:0 ~attacker:(Some 7) in
  Alcotest.(check bool) "sec3: v keeps its option" true
    (Outcome.to_d base3 5 && Outcome.to_d dep3 5)

(* Collateral benefit in the security 3rd model (Figure 15): a tie at a
   transit AS is broken toward the secure legitimate route, rescuing its
   insecure customer.
   ids: d=0, t=1 (transit with two peer routes), y=2 (peer of t with
   customer route to d), m=3 (peer of t), c=4 (customer of t). *)
let test_collateral_benefit_sec3 () =
  let g =
    graph 5
      [
        c2p 0 2 (* d customer of y *);
        p2p 1 2 (* t peers with y *);
        p2p 1 3 (* t peers with m *);
        c2p 4 1 (* c customer of t *);
      ]
  in
  let empty = Deployment.empty 5 in
  let s = Deployment.make ~n:5 ~full:[| 0; 1; 2 |] () in
  let col =
    collateral g sec3 ~baseline:empty ~deployment:s ~attacker:3
      ~dst:0
  in
  (* Insecure sources: y?  y is secure... insecure sources are m's
     customers... sources not in S: 4 (c) and 3 is the attacker.  c
     benefits: baseline t ties between (y,d) and (m,d) peer routes ->
     pessimistically unhappy; with S the (y,d) route is secure and wins
     the SecP tiebreak. *)
  Alcotest.(check int) "one collateral benefit" 1 col.Phenomena.benefit;
  Alcotest.(check int) "no collateral damage" 0 col.Phenomena.damage

(* Figure 17: collateral damage under security 1st via export policy — a
   secure AS switches to a provider route and may no longer export to its
   peer.  ids: d=0, opt=1 (7474), orange=2 (4805), p=3 (7473, provider of
   opt), m=4, prov2=5 (2647, provider of orange), x=6 joins p to d
   securely. *)
let test_collateral_damage_sec1_export () =
  let g =
    graph 8
      [
        c2p 7 1 (* z (insecure) customer of opt *);
        c2p 0 7 (* d customer of z *);
        p2p 1 2 (* opt peers with orange *);
        c2p 1 3 (* opt customer of p *);
        c2p 2 5 (* orange customer of prov2 *);
        c2p 4 5 (* m customer of prov2 *);
        c2p 6 3 (* x customer of p *);
        c2p 0 6 (* d customer of x *);
      ]
  in
  let empty = Deployment.empty 8 in
  (* Secure: d, opt, p, x — opt's provider route via p -> x -> d is
     fully secure, while its shorter customer route via z is not. *)
  let s = Deployment.make ~n:8 ~full:[| 0; 1; 3; 6 |] () in
  let base = Engine.compute g sec1 empty ~dst:0 ~attacker:(Some 4) in
  (* Baseline: orange hears opt's customer route via z over the peer link
     and prefers it over the bogus provider route via prov2. *)
  Alcotest.(check bool) "orange happy at baseline" true (Outcome.happy_lb base 2);
  let dep = Engine.compute g sec1 s ~dst:0 ~attacker:(Some 4) in
  (* With S, security-1st opt prefers the secure provider route via p;
     Ex then forbids exporting it to the peer orange, which falls back to
     the bogus provider route: collateral damage. *)
  Alcotest.(check bool) "opt picks the secure route" true (Outcome.secure dep 1);
  Alcotest.(check string) "opt's class is provider" "provider"
    (Policy.class_name (Outcome.route_class dep 1));
  Alcotest.(check bool) "orange collaterally damaged" true
    (Outcome.to_m dep 2 && not (Outcome.to_d dep 2))

(* Root-cause accounting identities on random instances. *)
let test_root_cause_identities =
  qtest "root-cause decomposition is internally consistent" ~count:150
    (fun seed ->
      let rng = Rng.create seed in
      let g = random_graph rng ~max_n:25 in
      let n = Graph.n g in
      let dep = random_deployment rng n in
      let policy = random_policy rng in
      let dst = Rng.int rng n and m = Rng.int rng n in
      if m = dst then true
      else begin
        let rc = root_cause g policy dep ~attacker:m ~dst in
        (* Secure routes under normal conditions split into downgraded /
           wasted / protecting. *)
        rc.Phenomena.rc_downgraded + rc.Phenomena.rc_wasted
        + rc.Phenomena.rc_protecting
        = rc.Phenomena.rc_secure_normal
        && rc.Phenomena.sources = n - 2
        && rc.Phenomena.rc_happy_dep >= 0
        && rc.Phenomena.rc_benefit <= rc.Phenomena.sources
      end)

(* No collateral damage in the security 3rd model (Theorem 6.1), measured
   through the phenomena API. *)
let test_no_damage_sec3 =
  qtest "Theorem 6.1: zero collateral damage when security is 3rd"
    ~count:200 (fun seed ->
      let rng = Rng.create seed in
      let g = random_graph rng ~max_n:30 in
      let n = Graph.n g in
      let dst = Rng.int rng n and m = Rng.int rng n in
      if m = dst then true
      else begin
        let dep = random_deployment rng n in
        let col =
          collateral g sec3 ~baseline:(Deployment.empty n)
            ~deployment:dep ~attacker:m ~dst
        in
        col.Phenomena.damage = 0
      end)

(* The batched folds equal the per-pair oracles lane by lane, on
   hierarchies wide enough for a full word: the normal lane plus 40-62
   attackers, so the high lanes (the sign bit included) are exercised.
   The baseline word is also solved under security 3rd of the same LP
   variant, the sharing the experiments rely on. *)
let test_batched_equals_oracle =
  qtest "batched folds = per-pair oracles, lane by lane" ~count:25
    (fun seed ->
      let rng = Rng.create seed in
      let g = random_hierarchy rng ~min_n:80 ~max_n:120 in
      let n = Graph.n g in
      let dep = random_deployment rng n in
      let policy = random_policy rng in
      let dst = Rng.int rng n in
      let attackers = random_attackers rng ~n ~dst (40 + Rng.int rng 23) in
      let empty = Deployment.empty n in
      let w = Phenomena.word g policy dep ~dst ~attackers in
      let base = Phenomena.word g policy empty ~dst ~attackers in
      let base3 =
        Phenomena.word g
          (Policy.make ~lp:policy.Policy.lp Policy.Security_third)
          empty ~dst ~attackers
      in
      let dg = Phenomena.downgrades w in
      let rc = Phenomena.root_cause ~base w in
      let rc3 = Phenomena.root_cause ~base:base3 w in
      let col = Phenomena.collateral ~baseline:base w in
      let ok = ref true in
      Array.iteri
        (fun l attacker ->
          let fail what =
            Printf.eprintf "lane %d (attacker %d, dst %d): %s differs\n%!"
              (l + 1) attacker dst what;
            ok := false
          in
          if dg.(l) <> Oracle.downgrades g policy dep ~attacker ~dst then
            fail "downgrades";
          let want = Oracle.root_cause g policy dep ~attacker ~dst in
          if rc.(l) <> want then fail "root_cause";
          if rc3.(l) <> want then fail "root_cause (sec3 baseline)";
          if
            col.(l)
            <> Oracle.collateral g policy ~baseline:empty ~deployment:dep
                 ~attacker ~dst
          then fail "collateral")
        attackers;
      !ok)

let test_collateral_requires_subset () =
  let g = graph 2 [ c2p 1 0 ] in
  Alcotest.check_raises "subset required"
    (Invalid_argument "Phenomena.collateral: baseline not a subset of deployment")
    (fun () ->
      ignore
        (collateral g sec3
           ~baseline:(Deployment.make ~n:2 ~full:[| 1 |] ())
           ~deployment:(Deployment.empty 2) ~attacker:1 ~dst:0))

let () =
  Alcotest.run "phenomena"
    [
      ( "hand examples",
        [
          Alcotest.test_case "figure 2 downgrades" `Quick test_downgrade_fig2;
          Alcotest.test_case "collateral damage (sec2)" `Quick
            test_collateral_damage_sec2;
          Alcotest.test_case "collateral benefit (sec3)" `Quick
            test_collateral_benefit_sec3;
          Alcotest.test_case "collateral damage via Ex (sec1)" `Quick
            test_collateral_damage_sec1_export;
          Alcotest.test_case "collateral requires subset" `Quick
            test_collateral_requires_subset;
        ] );
      ( "properties",
        [
          test_root_cause_identities;
          test_no_damage_sec3;
          test_batched_equals_oracle;
        ] );
    ]
