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
