(* Shared helpers for the alcotest/qcheck suites. *)

module G = Core.Graph

(* Tiny edge-list DSL: [c2p a b] makes [a] a customer of [b]. *)
let c2p a b = G.Customer_provider (a, b)
let p2p a b = G.Peer_peer (a, b)
let graph n edges = G.of_edges ~n edges

(* Random annotated AS graph: node 0 is the top of the hierarchy; every
   other node takes at least one provider with a smaller id, so the graph
   is connected and the hierarchy acyclic by construction.  Random peer
   edges are sprinkled on top. *)
let random_graph rng ~max_n =
  let n = 3 + Core.Rng.int rng (max_n - 2) in
  let edges = ref [] in
  let seen = Hashtbl.create 16 in
  let key a b = if a < b then (a, b) else (b, a) in
  let try_add e a b =
    if a <> b && not (Hashtbl.mem seen (key a b)) then begin
      Hashtbl.replace seen (key a b) ();
      edges := e :: !edges
    end
  in
  for v = 1 to n - 1 do
    let n_prov = 1 + Core.Rng.int rng 2 in
    for _ = 1 to n_prov do
      let p = Core.Rng.int rng v in
      try_add (c2p v p) v p
    done
  done;
  let n_peer = Core.Rng.int rng (2 * n) in
  for _ = 1 to n_peer do
    let a = Core.Rng.int rng n and b = Core.Rng.int rng n in
    try_add (p2p a b) a b
  done;
  graph n !edges

(* Random deployment over the same graph. *)
let random_deployment rng n =
  let modes =
    Array.init n (fun _ ->
        match Core.Rng.int rng 4 with
        | 0 | 1 -> Core.Deployment.Off
        | 2 -> Core.Deployment.Simplex
        | _ -> Core.Deployment.Full)
  in
  Core.Deployment.of_modes modes

let random_policy rng =
  let model =
    match Core.Rng.int rng 3 with
    | 0 -> Core.Policy.Security_first
    | 1 -> Core.Policy.Security_second
    | _ -> Core.Policy.Security_third
  in
  let lp =
    match Core.Rng.int rng 3 with
    | 0 -> Core.Policy.Standard
    | 1 -> Core.Policy.Lp_k (1 + Core.Rng.int rng 3)
    | _ -> Core.Policy.Lp_k (1 + Core.Rng.int rng 40)
  in
  Core.Policy.make ~lp model

(* Compare two outcomes field by field; returns a description of the first
   mismatch. *)
let outcome_mismatch a b =
  let n = Core.Outcome.n a in
  let describe v field va vb =
    Some (Printf.sprintf "AS %d: %s differs (%s vs %s)" v field va vb)
  in
  let rec go v =
    if v >= n then None
    else begin
      let ra = Core.Outcome.reached a v and rb = Core.Outcome.reached b v in
      if ra <> rb then
        describe v "reached" (string_of_bool ra) (string_of_bool rb)
      else if not ra then go (v + 1)
      else if Core.Outcome.length a v <> Core.Outcome.length b v then
        describe v "length"
          (string_of_int (Core.Outcome.length a v))
          (string_of_int (Core.Outcome.length b v))
      else if Core.Outcome.secure a v <> Core.Outcome.secure b v then
        describe v "secure"
          (string_of_bool (Core.Outcome.secure a v))
          (string_of_bool (Core.Outcome.secure b v))
      else if Core.Outcome.to_d a v <> Core.Outcome.to_d b v then
        describe v "to_d"
          (string_of_bool (Core.Outcome.to_d a v))
          (string_of_bool (Core.Outcome.to_d b v))
      else if Core.Outcome.to_m a v <> Core.Outcome.to_m b v then
        describe v "to_m"
          (string_of_bool (Core.Outcome.to_m a v))
          (string_of_bool (Core.Outcome.to_m b v))
      else if
        v <> Core.Outcome.dst a
        && Core.Outcome.attacker a <> Some v
        && Core.Outcome.route_class a v <> Core.Outcome.route_class b v
      then
        describe v "class"
          (Core.Policy.class_name (Core.Outcome.route_class a v))
          (Core.Policy.class_name (Core.Outcome.route_class b v))
      else go (v + 1)
    end
  in
  go 0

(* qcheck boilerplate: seed-driven properties. *)
let seed_arb = QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 1_000_000)

let qtest name ?(count = 200) prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name ~count seed_arb prop)

let check_none what = function
  | None -> true
  | Some msg ->
      Printf.eprintf "%s: %s\n%!" what msg;
      false

(* Random hierarchy of [min_n .. max_n] ASes (same construction as
   [random_graph]), for the lane-by-lane identity properties that need
   room for a wide attacker word. *)
let random_hierarchy rng ~min_n ~max_n =
  let rec go () =
    let g = random_graph rng ~max_n in
    if G.n g >= min_n then g else go ()
  in
  go ()

(* [k] distinct attackers other than [dst], in random order. *)
let random_attackers rng ~n ~dst k =
  let pool = Array.of_list (List.filter (fun v -> v <> dst) (List.init n Fun.id)) in
  let k = min k (Array.length pool) in
  Array.map (fun i -> pool.(i)) (Core.Rng.sample_without_replacement rng k (Array.length pool))

(* Per-pair oracles of the batched phenomena and attack folds: the
   one-attacker definitions, over separate normal and attacked
   {!Core.Reference} solves.  The batched folds must equal them lane by
   lane. *)
module Oracle = struct
  module O = Core.Outcome
  module Ph = Core.Phenomena

  let solve ?attacker_claim g policy dep ~dst ~attacker =
    Core.Reference.compute ?attacker_claim g policy dep ~dst ~attacker

  let is_source ~attacker ~dst v = v <> attacker && v <> dst
  let b x = if x then 1 else 0

  let downgrades g policy dep ~attacker ~dst : Ph.downgrade =
    let normal = solve g policy dep ~dst ~attacker:None in
    let attack = solve g policy dep ~dst ~attacker:(Some attacker) in
    (* Theorem 3.1 exempts sources whose normal route runs through the
       attacker. *)
    let through v = O.reached normal v && List.mem attacker (O.path normal v) in
    let secure_normal = ref 0 and downgraded = ref 0 and after = ref 0 in
    for v = 0 to O.n normal - 1 do
      if is_source ~attacker ~dst v then begin
        let sn = O.secure normal v && not (through v) in
        let sa = O.secure attack v in
        secure_normal := !secure_normal + b sn;
        downgraded := !downgraded + b (sn && not sa);
        after := !after + b (sn && sa)
      end
    done;
    {
      Ph.secure_normal = !secure_normal;
      downgraded = !downgraded;
      secure_after = !after;
      sources = O.n normal - 2;
    }

  let root_cause g policy dep ~attacker ~dst : Ph.root_cause =
    let n = G.n g in
    let normal = solve g policy dep ~dst ~attacker:None in
    let attack = solve g policy dep ~dst ~attacker:(Some attacker) in
    let base =
      solve g policy (Core.Deployment.empty n) ~dst ~attacker:(Some attacker)
    in
    let acc = ref Ph.root_cause_zero in
    for v = 0 to n - 1 do
      if is_source ~attacker ~dst v then begin
        let sn = O.secure normal v and sa = O.secure attack v in
        let hb = O.happy_lb base v and hd = O.happy_lb attack v in
        let insecure = not (Core.Deployment.is_full dep v) in
        acc :=
          Ph.root_cause_add !acc
            {
              Ph.sources = 1;
              rc_secure_normal = b sn;
              rc_downgraded = b (sn && not sa);
              rc_wasted = b (sn && sa && hb);
              rc_protecting = b (sn && sa && not hb);
              rc_benefit = b (insecure && (not hb) && hd);
              rc_damage = b (insecure && hb && not hd);
              rc_happy_base = b hb;
              rc_happy_dep = b hd;
            }
      end
    done;
    !acc

  let collateral g policy ~baseline ~deployment ~attacker ~dst : Ph.collateral
      =
    let small = solve g policy baseline ~dst ~attacker:(Some attacker) in
    let large = solve g policy deployment ~dst ~attacker:(Some attacker) in
    let benefit = ref 0 and damage = ref 0 and insecure = ref 0 in
    for v = 0 to G.n g - 1 do
      if
        is_source ~attacker ~dst v
        && not (Core.Deployment.is_full deployment v)
      then begin
        incr insecure;
        let hs = O.happy_lb small v and hl = O.happy_lb large v in
        benefit := !benefit + b ((not hs) && hl);
        damage := !damage + b (hs && not hl)
      end
    done;
    { Ph.benefit = !benefit; damage = !damage; insecure_sources = !insecure }

  let simulate ?(origin_auth = true) g policy dep ~attacker ~dst strategy :
      Core.Attacks.result =
    let n = G.n g in
    let filtered =
      origin_auth && not (Core.Attacks.passes_origin_validation strategy)
    in
    let count f =
      let c = ref 0 in
      for v = 0 to n - 1 do
        if is_source ~attacker ~dst v && f v then incr c
      done;
      !c
    in
    let flat happy =
      {
        Core.Attacks.strategy;
        filtered;
        happy_lb = happy;
        happy_ub = happy;
        sources = n - 2;
      }
    in
    if filtered then
      let normal = solve g policy dep ~dst ~attacker:None in
      flat (count (O.reached normal))
    else
      match strategy with
      | Core.Attacks.Subprefix_hijack ->
          let reach_m = Core.Reach.compute g ~root:attacker ~avoid:dst () in
          let reach_d = Core.Reach.compute g ~root:dst ~avoid:attacker () in
          flat
            (count (fun v ->
                 Core.Reach.any reach_d v && not (Core.Reach.any reach_m v)))
      | Core.Attacks.Prefix_hijack | Core.Attacks.Fabricated_path _ ->
          let attacker_claim =
            match strategy with Core.Attacks.Fabricated_path k -> k | _ -> 0
          in
          let out =
            solve ~attacker_claim g policy dep ~dst ~attacker:(Some attacker)
          in
          let c = Core.Metric.happy out in
          {
            Core.Attacks.strategy;
            filtered = false;
            happy_lb = c.Core.Metric.happy_lb;
            happy_ub = c.Core.Metric.happy_ub;
            sources = c.Core.Metric.sources;
          }
end
