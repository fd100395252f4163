type t = {
  label : string;
  graph : Topology.Graph.t;
  tiers : Topology.Tiers.t;
  cps : int array;
  seed : int;
  scale : float;
  all : int array;
  non_stubs : int array;
  domains : int;
  pool_cell : Parallel.Pool.t Lazy.t;
  cache_cell : Metric.H_metric.Cache.t Lazy.t;
  sample_log : (string, int * int) Hashtbl.t;
}

let finish ~label ~seed ~scale ~domains graph cps =
  let tiers = Topology.Tiers.classify ~cps:(Array.to_list cps) graph in
  let domains =
    match domains with
    | Some d when d >= 1 -> d
    | Some _ -> invalid_arg "Context: domains must be >= 1"
    | None -> Parallel.default_domains ()
  in
  {
    label;
    graph;
    tiers;
    cps;
    seed;
    scale;
    all = Array.init (Topology.Graph.n graph) Fun.id;
    non_stubs = Topology.Tiers.non_stubs tiers;
    domains;
    pool_cell =
      (* Share the process-wide pool when the requested width matches it;
         contexts asking for a specific other width get their own pool.
         Lazy, so contexts that never run an experiment spawn nothing. *)
      lazy
        (if domains = Parallel.default_domains () then Parallel.default_pool ()
         else Parallel.Pool.create ~domains ());
    cache_cell = lazy (Metric.H_metric.Cache.create ());
    sample_log = Hashtbl.create 16;
  }

let pool t = Lazy.force t.pool_cell
let cache t = Lazy.force t.cache_cell

(* [scaled] clamps every sample to at least one element, so a zero,
   negative or NaN scale would otherwise run each experiment on a single
   sample without complaint. *)
let check_scale scale =
  if not (Float.is_finite scale && scale > 0.) then
    invalid_arg
      (Printf.sprintf "Context: scale must be finite and > 0 (got %g)" scale)

let make ?(n = 4000) ?(seed = 42) ?(ixp = false) ?(scale = 1.) ?domains () =
  check_scale scale;
  let r = Topogen.generate ~params:(Topogen.default_params ~n) (Rng.create seed) in
  let graph, label =
    if ixp then begin
      let g, _added = Topology.Ixp.augment (Rng.create (seed + 1)) r.Topogen.graph in
      (g, "ixp")
    end
    else (r.Topogen.graph, "base")
  in
  finish ~label ~seed ~scale ~domains graph r.Topogen.cps

let of_graph ?(seed = 42) ?(scale = 1.) ?domains ~label graph ~cps =
  check_scale scale;
  finish ~label ~seed ~scale ~domains graph cps

let rng t purpose =
  (* Mix the purpose string into the seed so each experiment gets an
     independent reproducible stream. *)
  Rng.create (t.seed + (7919 * Hashtbl.hash purpose))

let scaled t k = max 1 (int_of_float (ceil (float_of_int k *. t.scale)))

let pool_digest pool =
  Array.fold_left
    (fun h v -> ((h * 31) + v + 1) land max_int)
    (Array.length pool) pool

let sample t purpose pool k =
  let k = min k (Array.length pool) in
  (* A purpose string names one sample stream.  Reusing it against a
     different pool or size silently replays the same index stream over
     different data (the Figure 7(b) secure-destination bug), so flag it
     loudly; repeating an identical draw is legitimate and cheap. *)
  let digest = pool_digest pool in
  (match Hashtbl.find_opt t.sample_log purpose with
  | None -> Hashtbl.add t.sample_log purpose (digest, k)
  | Some (d, k') when d = digest && k' = k -> ()
  | Some _ ->
      invalid_arg
        (Printf.sprintf
           "Context.sample: purpose %S reused with a different pool or size"
           purpose));
  let idx = Rng.sample_without_replacement (rng t purpose) k (Array.length pool) in
  let out = Array.map (fun i -> pool.(i)) idx in
  Array.sort Int.compare out;
  out

(* A fixed pseudo-random priority over AS ids, derived from the context
   seed and a purpose string.  splitmix64-style finalizer on OCaml's
   63-bit native ints — plenty for tie-free ordering of graph nodes. *)
let priority t purpose =
  let base = (t.seed * 0x9E3779B9) lxor (Hashtbl.hash purpose * 0x85EBCA6B) in
  fun v ->
    let z = base + ((v + 1) * 0x9E3779B97F4A7C1) in
    let z = (z lxor (z lsr 30)) * 0xBF58476D1CE4E5B in
    let z = (z lxor (z lsr 27)) * 0x94D049BB133111E in
    (z lxor (z lsr 31)) land max_int

let priority_sample t purpose pool k =
  let k = min k (Array.length pool) in
  let pi = priority t purpose in
  let ranked = Array.map (fun v -> (pi v, v)) pool in
  Array.sort
    (fun (a, va) (b, vb) ->
      let c = Int.compare a b in
      if c <> 0 then c else Int.compare va vb)
    ranked;
  let out = Array.init k (fun i -> snd ranked.(i)) in
  Array.sort Int.compare out;
  out

let tier_members t tier = Topology.Tiers.members t.tiers tier

let sec1 = Routing.Policy.make Routing.Policy.Security_first
let sec2 = Routing.Policy.make Routing.Policy.Security_second
let sec3 = Routing.Policy.make Routing.Policy.Security_third
let policies = [ sec1; sec2; sec3 ]

let self_audit ?options t =
  let options =
    match options with
    | Some o -> o
    | None -> { Check.default_options with Check.seed = t.seed }
  in
  Check.run ~options ~tiers:t.tiers t.graph

let describe t =
  Printf.sprintf "graph=%s n=%d c2p=%d p2p=%d seed=%d scale=%.1f" t.label
    (Topology.Graph.n t.graph)
    (Topology.Graph.num_customer_provider_edges t.graph)
    (Topology.Graph.num_peer_edges t.graph)
    t.seed t.scale
