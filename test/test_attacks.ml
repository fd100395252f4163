(* Attack strategy space (Section 3). *)

open Core
open Test_helpers

let sec3 = Policy.make Policy.Security_third

(* Small fixed scenario: d=0 with provider 1 and its chain; attacker 3. *)
let g = lazy (graph 5 [ c2p 0 1; c2p 1 2; c2p 3 2; c2p 4 3 ])
let empty = Deployment.empty 5

(* The batched simulation for one attacker. *)
let simulate1 ?origin_auth g policy dep ~attacker ~dst strategy =
  (Attacks.simulate ?origin_auth g policy dep ~dst ~attackers:[| attacker |]
     strategy).(0)

let simulate ?origin_auth strategy =
  simulate1 ?origin_auth (Lazy.force g) sec3 empty ~attacker:3 ~dst:0
    strategy

let test_origin_validation_gate () =
  Alcotest.(check bool) "prefix hijack fails OV" false
    (Attacks.passes_origin_validation Attacks.Prefix_hijack);
  Alcotest.(check bool) "subprefix hijack fails OV" false
    (Attacks.passes_origin_validation Attacks.Subprefix_hijack);
  Alcotest.(check bool) "fabricated path passes OV" true
    (Attacks.passes_origin_validation (Attacks.Fabricated_path 1));
  Alcotest.(check bool) "longer fabricated path passes OV" true
    (Attacks.passes_origin_validation (Attacks.Fabricated_path 4))

let test_filtered_hijack_is_noop () =
  let r = simulate ~origin_auth:true Attacks.Prefix_hijack in
  Alcotest.(check bool) "filtered" true r.Attacks.filtered;
  (* All three sources (1, 2, 4) reach the destination normally. *)
  Alcotest.(check int) "all happy" r.Attacks.sources r.Attacks.happy_lb

let test_unfiltered_subprefix_is_devastating () =
  let r = simulate ~origin_auth:false Attacks.Subprefix_hijack in
  Alcotest.(check bool) "not filtered" false r.Attacks.filtered;
  (* Everyone with a perceivable route to the attacker loses; in this
     graph that is everyone. *)
  Alcotest.(check int) "nobody happy" 0 r.Attacks.happy_lb

let test_fabricated_path_ignores_origin_auth () =
  let with_oa = simulate ~origin_auth:true (Attacks.Fabricated_path 1) in
  let without = simulate ~origin_auth:false (Attacks.Fabricated_path 1) in
  Alcotest.(check bool) "not filtered" false with_oa.Attacks.filtered;
  Alcotest.(check int) "same happy count" with_oa.Attacks.happy_lb
    without.Attacks.happy_lb

let test_fabricated_path_requires_positive_length () =
  Alcotest.check_raises "length 0 rejected"
    (Invalid_argument "Attacks.simulate: Fabricated_path requires length >= 1")
    (fun () -> ignore (simulate (Attacks.Fabricated_path 0)))

(* Shorter claims are (weakly) stronger attacks — the justification for
   the paper's choice of the "m d" announcement.  This holds for the
   standard Gao-Rexford LP model (verified over hundreds of thousands of
   random instances); under the LPk variants it can fail in rare corner
   cases, because a longer claim can flip an intermediate AS's
   length-interleaved class and thereby change what it exports. *)
let test_shorter_claims_stronger =
  qtest "attack strength is monotone in claimed length (standard LP)"
    ~count:150
    (fun seed ->
      let rng = Rng.create seed in
      let g = random_graph rng ~max_n:30 in
      let n = Graph.n g in
      let dep = random_deployment rng n in
      let policy =
        Policy.make
          (match Rng.int rng 3 with
          | 0 -> Policy.Security_first
          | 1 -> Policy.Security_second
          | _ -> Policy.Security_third)
      in
      let dst = Rng.int rng n and m = Rng.int rng n in
      if dst = m then true
      else begin
        let happy k =
          (simulate1 g policy dep ~attacker:m ~dst
             (Attacks.Fabricated_path k))
            .Attacks.happy_lb
        in
        let h1 = happy 1 and h2 = happy 2 and h4 = happy 4 in
        h1 <= h2 && h2 <= h4
      end)

(* An unfiltered prefix hijack (claim 0) is at least as strong as the
   "m d" attack. *)
let test_hijack_at_least_as_strong =
  qtest "prefix hijack >= fabricated path when unfiltered" ~count:150
    (fun seed ->
      let rng = Rng.create seed in
      let g = random_graph rng ~max_n:30 in
      let n = Graph.n g in
      let dst = Rng.int rng n and m = Rng.int rng n in
      if dst = m then true
      else begin
        let happy s =
          (simulate1 ~origin_auth:false g sec3 (Deployment.empty n)
             ~attacker:m ~dst s)
            .Attacks.happy_lb
        in
        happy Attacks.Prefix_hijack <= happy (Attacks.Fabricated_path 1)
      end)

(* Every strategy, with and without origin authentication, on a word of
   40-63 attackers: each lane equals the per-pair oracle. *)
let test_batched_equals_oracle =
  qtest "batched simulate = per-pair oracle, lane by lane" ~count:20
    (fun seed ->
      let rng = Rng.create seed in
      let g = random_hierarchy rng ~min_n:80 ~max_n:120 in
      let n = Graph.n g in
      let dep = random_deployment rng n in
      let policy = random_policy rng in
      let dst = Rng.int rng n in
      let attackers = random_attackers rng ~n ~dst (40 + Rng.int rng 24) in
      List.for_all
        (fun (origin_auth, strategy) ->
          let got =
            Attacks.simulate ~origin_auth g policy dep ~dst ~attackers strategy
          in
          Array.for_all Fun.id
            (Array.mapi
               (fun l attacker ->
                 got.(l)
                 = Oracle.simulate ~origin_auth g policy dep ~attacker ~dst
                     strategy
                 || check_none "simulate"
                      (Some
                         (Printf.sprintf "%s, origin auth %b, lane %d"
                            (Attacks.strategy_name strategy) origin_auth l)))
               attackers))
        (List.concat_map
           (fun s -> [ (false, s); (true, s) ])
           Attacks.
             [
               Prefix_hijack;
               Subprefix_hijack;
               Fabricated_path 1;
               Fabricated_path 3;
             ]))

let test_strategy_names () =
  Alcotest.(check string) "md name" "fabricated path \"m d\""
    (Attacks.strategy_name (Attacks.Fabricated_path 1));
  Alcotest.(check string) "hijack name" "prefix hijack"
    (Attacks.strategy_name Attacks.Prefix_hijack)

let () =
  Alcotest.run "attacks"
    [
      ( "origin validation",
        [
          Alcotest.test_case "validation gate" `Quick
            test_origin_validation_gate;
          Alcotest.test_case "filtered hijack is a no-op" `Quick
            test_filtered_hijack_is_noop;
          Alcotest.test_case "unfiltered subprefix hijack" `Quick
            test_unfiltered_subprefix_is_devastating;
          Alcotest.test_case "fabricated path ignores OA" `Quick
            test_fabricated_path_ignores_origin_auth;
          Alcotest.test_case "bad length" `Quick
            test_fabricated_path_requires_positive_length;
          Alcotest.test_case "names" `Quick test_strategy_names;
        ] );
      ( "properties",
        [
          test_shorter_claims_stronger;
          test_hijack_at_least_as_strong;
          test_batched_equals_oracle;
        ] );
    ]
