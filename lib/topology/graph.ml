type ints = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

module Csr = struct
  (* Flat compressed-sparse-row view of the adjacency: every neighbor of
     every AS lives in one contiguous [adj] array, one row per AS, with
     the row split into three segments — customers, then peers, then
     providers.  [xs] holds the 3n+1 segment boundaries:

       customers of v : adj[xs.{3v}   .. xs.{3v+1})
       peers of v     : adj[xs.{3v+1} .. xs.{3v+2})
       providers of v : adj[xs.{3v+2} .. xs.{3v+3})

     The row of v+1 starts where the row of v ends, so a full-row scan is
     a single linear pass and the relationship class of a neighbor is
     decided by which boundary its index has crossed — no per-class
     closure dispatch in the routing kernel's inner loop.

     Both arrays are off-heap native-int bigarrays: the GC never scans
     them (a million-AS adjacency is invisible to marking), and a
     snapshot file can be mapped straight into them
     ({!Serial.load_snapshot}) with no decode pass. *)
  type t = { adj : ints; xs : ints }

  let alloc len = Bigarray.Array1.create Bigarray.int Bigarray.c_layout len

  let of_tables ~customers ~peers ~providers =
    let n = Array.length customers in
    let xs = alloc ((3 * n) + 1) in
    let total = ref 0 in
    for v = 0 to n - 1 do
      xs.{3 * v} <- !total;
      total := !total + Array.length customers.(v);
      xs.{(3 * v) + 1} <- !total;
      total := !total + Array.length peers.(v);
      xs.{(3 * v) + 2} <- !total;
      total := !total + Array.length providers.(v)
    done;
    xs.{3 * n} <- !total;
    let adj = alloc !total in
    let fill src pos = Array.iteri (fun i x -> adj.{pos + i} <- x) src in
    for v = 0 to n - 1 do
      fill customers.(v) xs.{3 * v};
      fill peers.(v) xs.{(3 * v) + 1};
      fill providers.(v) xs.{(3 * v) + 2}
    done;
    { adj; xs }
end

(* Per-AS adjacency tables: the boxed counterpart of the CSR.  A graph
   holds at least one of the two representations; each is built lazily
   from the other and cached. *)
type tables = {
  customers : int array array;
  providers : int array array;
  peers : int array array;
}

type t = {
  n : int;
  num_c2p : int;
  num_p2p : int;
  version : int;
  (* Both caches follow the same race discipline: two domains racing on
     a cold cache both build identical values and one pointer write wins
     — wasted work, never a wrong answer (the fields hold immutable
     values and pointer writes are atomic). *)
  mutable tables : tables option;
  mutable csr_cache : Csr.t option;
}

(* Graph identity for caches: process-global, monotone, never reused.
   No computed result may depend on it — it exists so a cache keyed on
   (version, deployment) cannot serve one topology's outcome for
   another. *)
let version_counter = Atomic.make 0
let fresh_version () = Atomic.fetch_and_add version_counter 1

type edge =
  | Customer_provider of int * int
  | Peer_peer of int * int

let tables g =
  match g.tables with
  | Some tb -> tb
  | None ->
      let c =
        match g.csr_cache with
        | Some c -> c
        | None -> assert false (* constructors always install one side *)
      in
      let adj = c.Csr.adj and xs = c.Csr.xs in
      let seg lo hi = Array.init (hi - lo) (fun i -> adj.{lo + i}) in
      let tb =
        {
          customers = Array.init g.n (fun v -> seg xs.{3 * v} xs.{(3 * v) + 1});
          peers =
            Array.init g.n (fun v -> seg xs.{(3 * v) + 1} xs.{(3 * v) + 2});
          providers =
            Array.init g.n (fun v -> seg xs.{(3 * v) + 2} xs.{(3 * v) + 3});
        }
      in
      g.tables <- Some tb;
      tb

let csr g =
  match g.csr_cache with
  | Some c -> c
  | None ->
      let tb = tables g in
      let c =
        Csr.of_tables ~customers:tb.customers ~peers:tb.peers
          ~providers:tb.providers
      in
      g.csr_cache <- Some c;
      c

(* Relationship of the pair (a, b) with a < b, from a's point of view. *)
type rel = A_customer_of_b | B_customer_of_a | Peers

let of_edges ~n edge_list =
  if n < 0 then invalid_arg "Graph.of_edges: negative n";
  let check v =
    if v < 0 || v >= n then
      invalid_arg (Printf.sprintf "Graph.of_edges: AS %d out of range" v)
  in
  (* Keyed on the single int [a * n + b] (with a < b) rather than a boxed
     (int * int) tuple: one immediate-int hash and compare per edge
     instead of a tuple allocation plus a structural walk.  [a * n + b]
     is injective on in-range pairs and fits an OCaml int for any
     realistic AS count. *)
  let tbl : (int, rel) Hashtbl.t = Hashtbl.create (List.length edge_list) in
  let insert a b rel =
    check a;
    check b;
    if a = b then invalid_arg "Graph.of_edges: self loop";
    let key, rel =
      if a < b then ((a * n) + b, rel)
      else
        ( (b * n) + a,
          match rel with
          | A_customer_of_b -> B_customer_of_a
          | B_customer_of_a -> A_customer_of_b
          | Peers -> Peers )
    in
    match Hashtbl.find_opt tbl key with
    | None -> Hashtbl.add tbl key rel
    | Some existing ->
        if existing <> rel then
          invalid_arg
            (Printf.sprintf
               "Graph.of_edges: conflicting relationships for pair (%d, %d)"
               (key / n) (key mod n))
  in
  List.iter
    (function
      | Customer_provider (c, p) -> insert c p A_customer_of_b
      | Peer_peer (a, b) -> insert a b Peers)
    edge_list;
  let cust_deg = Array.make n 0 and prov_deg = Array.make n 0 and peer_deg = Array.make n 0 in
  Hashtbl.iter
    (fun key rel ->
      let a = key / n and b = key mod n in
      match rel with
      | A_customer_of_b ->
          prov_deg.(a) <- prov_deg.(a) + 1;
          cust_deg.(b) <- cust_deg.(b) + 1
      | B_customer_of_a ->
          prov_deg.(b) <- prov_deg.(b) + 1;
          cust_deg.(a) <- cust_deg.(a) + 1
      | Peers ->
          peer_deg.(a) <- peer_deg.(a) + 1;
          peer_deg.(b) <- peer_deg.(b) + 1)
    tbl;
  let customers = Array.init n (fun v -> Array.make cust_deg.(v) 0) in
  let providers = Array.init n (fun v -> Array.make prov_deg.(v) 0) in
  let peers = Array.init n (fun v -> Array.make peer_deg.(v) 0) in
  let ci = Array.make n 0 and pi = Array.make n 0 and ei = Array.make n 0 in
  let add_cust p c =
    customers.(p).(ci.(p)) <- c;
    ci.(p) <- ci.(p) + 1
  in
  let add_prov c p =
    providers.(c).(pi.(c)) <- p;
    pi.(c) <- pi.(c) + 1
  in
  let add_peer a b =
    peers.(a).(ei.(a)) <- b;
    ei.(a) <- ei.(a) + 1
  in
  let num_c2p = ref 0 and num_p2p = ref 0 in
  Hashtbl.iter
    (fun key rel ->
      let a = key / n and b = key mod n in
      match rel with
      | A_customer_of_b ->
          incr num_c2p;
          add_cust b a;
          add_prov a b
      | B_customer_of_a ->
          incr num_c2p;
          add_cust a b;
          add_prov b a
      | Peers ->
          incr num_p2p;
          add_peer a b;
          add_peer b a)
    tbl;
  (* Sort adjacency for determinism (hash iteration order is arbitrary). *)
  let sort_all arrs = Array.iter (fun a -> Array.sort Int.compare a) arrs in
  sort_all customers;
  sort_all providers;
  sort_all peers;
  { n; num_c2p = !num_c2p; num_p2p = !num_p2p; version = fresh_version ();
    tables = Some { customers; providers; peers }; csr_cache = None }

let unsafe_of_adjacency ~customers ~providers ~peers =
  let n = Array.length customers in
  if Array.length providers <> n || Array.length peers <> n then
    invalid_arg "Graph.unsafe_of_adjacency: table length mismatch";
  let sum arrs = Array.fold_left (fun acc a -> acc + Array.length a) 0 arrs in
  { n; num_c2p = sum customers; num_p2p = sum peers / 2;
    version = fresh_version ();
    tables = Some { customers; providers; peers }; csr_cache = None }

let of_csr ~adj ~xs =
  let fail msg = invalid_arg ("Graph.of_csr: " ^ msg) in
  let xl = Bigarray.Array1.dim xs in
  if xl < 1 || (xl - 1) mod 3 <> 0 then fail "xs length is not 3n + 1";
  let n = (xl - 1) / 3 in
  let al = Bigarray.Array1.dim adj in
  if xs.{0} <> 0 then fail "xs does not start at 0";
  for k = 0 to xl - 2 do
    if xs.{k} > xs.{k + 1} then fail "xs boundaries are not monotone"
  done;
  if xs.{xl - 1} <> al then fail "xs end disagrees with adj length";
  (* Each class segment: neighbors in range, no self loop, strictly
     ascending (sorted, duplicate-free). *)
  let check_seg v lo hi =
    let prev = ref (-1) in
    for i = lo to hi - 1 do
      let u = adj.{i} in
      if u < 0 || u >= n then
        fail (Printf.sprintf "neighbor %d of AS %d out of range" u v);
      if u = v then fail (Printf.sprintf "self loop at AS %d" v);
      if u <= !prev then
        fail (Printf.sprintf "row of AS %d unsorted or duplicated" v);
      prev := u
    done
  in
  for v = 0 to n - 1 do
    check_seg v xs.{3 * v} xs.{(3 * v) + 1};
    check_seg v xs.{(3 * v) + 1} xs.{(3 * v) + 2};
    check_seg v xs.{(3 * v) + 2} xs.{(3 * v) + 3}
  done;
  (* Mutuality: u's customer lists v as provider (and conversely), and
     peering is symmetric — binary search in the reverse segment. *)
  let mem_seg lo hi x =
    let lo = ref lo and hi = ref hi in
    let found = ref false in
    while (not !found) && !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      let y = adj.{mid} in
      if y = x then found := true else if y < x then lo := mid + 1 else hi := mid
    done;
    !found
  in
  for v = 0 to n - 1 do
    for i = xs.{3 * v} to xs.{(3 * v) + 1} - 1 do
      let u = adj.{i} in
      if not (mem_seg xs.{(3 * u) + 2} xs.{(3 * u) + 3} v) then
        fail
          (Printf.sprintf "AS %d lists customer %d, but not conversely" v u)
    done;
    for i = xs.{(3 * v) + 1} to xs.{(3 * v) + 2} - 1 do
      let u = adj.{i} in
      if not (mem_seg xs.{(3 * u) + 1} xs.{(3 * u) + 2} v) then
        fail (Printf.sprintf "AS %d lists peer %d, but not conversely" v u)
    done;
    for i = xs.{(3 * v) + 2} to xs.{(3 * v) + 3} - 1 do
      let u = adj.{i} in
      if not (mem_seg xs.{3 * u} xs.{(3 * u) + 1} v) then
        fail
          (Printf.sprintf "AS %d lists provider %d, but not conversely" v u)
    done
  done;
  let num_c2p = ref 0 and peer_entries = ref 0 in
  for v = 0 to n - 1 do
    num_c2p := !num_c2p + (xs.{(3 * v) + 1} - xs.{3 * v});
    peer_entries := !peer_entries + (xs.{(3 * v) + 2} - xs.{(3 * v) + 1})
  done;
  { n; num_c2p = !num_c2p; num_p2p = !peer_entries / 2;
    version = fresh_version (); tables = None;
    csr_cache = Some { Csr.adj; xs } }

let n g = g.n
let version g = g.version
let customers g v = (tables g).customers.(v)
let providers g v = (tables g).providers.(v)
let peers g v = (tables g).peers.(v)

let customer_degree g v =
  match g.csr_cache with
  | Some c -> c.Csr.xs.{(3 * v) + 1} - c.Csr.xs.{3 * v}
  | None -> Array.length (tables g).customers.(v)

let peer_degree g v =
  match g.csr_cache with
  | Some c -> c.Csr.xs.{(3 * v) + 2} - c.Csr.xs.{(3 * v) + 1}
  | None -> Array.length (tables g).peers.(v)

let provider_degree g v =
  match g.csr_cache with
  | Some c -> c.Csr.xs.{(3 * v) + 3} - c.Csr.xs.{(3 * v) + 2}
  | None -> Array.length (tables g).providers.(v)

let degree g v = customer_degree g v + peer_degree g v + provider_degree g v

let num_customer_provider_edges g = g.num_c2p
let num_peer_edges g = g.num_p2p
let is_stub g v = customer_degree g v = 0

let edges g =
  let tb = tables g in
  let acc = ref [] in
  for v = 0 to g.n - 1 do
    Array.iter (fun p -> acc := Customer_provider (v, p) :: !acc) tb.providers.(v);
    Array.iter (fun u -> if v < u then acc := Peer_peer (v, u) :: !acc) tb.peers.(v)
  done;
  !acc

let acyclic_hierarchy g =
  let tb = tables g in
  (* Kahn's algorithm on the customer -> provider digraph. *)
  let indeg = Array.make g.n 0 in
  for v = 0 to g.n - 1 do
    indeg.(v) <- Array.length tb.customers.(v)
  done;
  let queue = Queue.create () in
  for v = 0 to g.n - 1 do
    if indeg.(v) = 0 then Queue.add v queue
  done;
  let seen = ref 0 in
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    incr seen;
    Array.iter
      (fun p ->
        indeg.(p) <- indeg.(p) - 1;
        if indeg.(p) = 0 then Queue.add p queue)
      tb.providers.(v)
  done;
  !seen = g.n

let connected g =
  if g.n <= 1 then true
  else begin
    let tb = tables g in
    let seen = Prelude.Bitset.create g.n in
    let queue = Queue.create () in
    Prelude.Bitset.add seen 0;
    Queue.add 0 queue;
    while not (Queue.is_empty queue) do
      let v = Queue.pop queue in
      let visit u =
        if not (Prelude.Bitset.mem seen u) then begin
          Prelude.Bitset.add seen u;
          Queue.add u queue
        end
      in
      Array.iter visit tb.customers.(v);
      Array.iter visit tb.providers.(v);
      Array.iter visit tb.peers.(v)
    done;
    Prelude.Bitset.cardinal seen = g.n
  end
