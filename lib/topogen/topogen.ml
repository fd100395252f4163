type params = {
  n : int;
  n_t1 : int;
  n_t2 : int;
  n_t3 : int;
  n_cp : int;
  n_small_cp : int;
  frac_mid : float;
  frac_t1_stub : float;
  frac_stub_x : float;
  stub_provider_p : float;
  t2_peer_degree : int;
  t3_peer_degree : int;
  mid_peer_degree : int;
  cp_peer_degree : int;
  small_cp_peer_degree : int;
}

(* The UCLA-2012 graph the paper's Table 1 tier sizes are calibrated
   against.  At or below this n, [default_params] (and its absolute tier
   caps) are the historical, bit-stable values; above it the transit and
   edge tiers scale proportionally with n, because 13 Tier 1s and 300
   small CPs serving a million stubs is not a plausible Internet. *)
let calibration_n = 39056

let default_params ~n =
  let scale k = max 2 (min k (n * k / 4000)) in
  let up k = if n <= calibration_n then k else k * n / calibration_n in
  {
    n;
    n_t1 = (if n >= 2000 then 13 else max 3 (n / 150));
    n_t2 = up (scale 100);
    n_t3 = up (scale 100);
    n_cp = (if n >= 2000 then up 17 else max 2 (n / 200));
    n_small_cp = up (scale 300);
    frac_mid = 0.12;
    frac_t1_stub = 0.12;
    frac_stub_x = 0.10;
    stub_provider_p = 0.52;
    t2_peer_degree = 14;
    t3_peer_degree = 9;
    mid_peer_degree = 6;
    cp_peer_degree = 40;
    small_cp_peer_degree = 8;
  }

type result = {
  graph : Topology.Graph.t;
  cps : int array;
  levels : int array;
}

(* Generation levels; providers always come from a strictly lower level,
   which keeps the hierarchy acyclic. *)
let level_t1 = 0
let level_t2 = 1
let level_t3 = 2
let level_mid = 3
let level_edge = 4 (* content providers and small CPs *)
let level_stub = 5

(* Far beyond any AS-level Internet graph, and small enough that no
   size arithmetic below overflows. *)
let max_n = 1 lsl 26

(* Knob validation.  Every failure names the offending parameter: a
   degenerate knob otherwise surfaces far away (a division by zero inside
   [Rng.geometric], an empty [Rng.weighted_index] pool, or — worst — a
   structurally implausible graph that generates without complaint). *)
let validate p =
  let bad knob msg =
    invalid_arg (Printf.sprintf "Topogen.generate: %s %s" knob msg)
  in
  if p.n < 1 then bad "n" "must be positive";
  if p.n > max_n then bad "n" (Printf.sprintf "must be at most %d" max_n);
  (* Each tier at most [n], so the tier sum below cannot overflow. *)
  let tier knob v =
    if v < 1 then bad knob "must be at least 1";
    if v > p.n then bad knob "must not exceed n"
  in
  tier "n_t1" p.n_t1;
  tier "n_t2" p.n_t2;
  tier "n_t3" p.n_t3;
  tier "n_cp" p.n_cp;
  tier "n_small_cp" p.n_small_cp;
  (* [not (v >= 0. && v <= 1.)] rather than [v < 0. || v > 1.]: the
     former also rejects NaN. *)
  let frac knob v =
    if not (v >= 0. && v <= 1.) then bad knob "must lie in [0, 1]"
  in
  frac "frac_mid" p.frac_mid;
  frac "frac_t1_stub" p.frac_t1_stub;
  frac "frac_stub_x" p.frac_stub_x;
  if not (p.stub_provider_p > 0. && p.stub_provider_p <= 1.) then
    bad "stub_provider_p" "must lie in (0, 1]";
  (* A peer-degree mean of 0 means "no peering for this tier"; any other
     value must be >= 1 so that 1/mean is a valid geometric parameter. *)
  let degree knob v =
    if v < 0 then bad knob "must be non-negative"
  in
  degree "t2_peer_degree" p.t2_peer_degree;
  degree "t3_peer_degree" p.t3_peer_degree;
  degree "mid_peer_degree" p.mid_peer_degree;
  degree "cp_peer_degree" p.cp_peer_degree;
  degree "small_cp_peer_degree" p.small_cp_peer_degree;
  (* Above the UCLA-2012 calibration point the tier counts must keep
     tracking n.  [default_params] scales them; hand-rolled params that
     keep the <= calibration absolutes while n grows produce a graph
     where each transit AS carries many times the calibrated customer
     load — reject anything below half the scaled density. *)
  if p.n > calibration_n then begin
    let dense knob v cal =
      let floor_v = cal * p.n / (2 * calibration_n) in
      if v < floor_v then
        bad knob
          (Printf.sprintf
             "is %d, below half the UCLA-2012-calibrated density for n = %d \
              (need >= %d)"
             v p.n floor_v)
    in
    dense "n_t2" p.n_t2 100;
    dense "n_t3" p.n_t3 100;
    dense "n_small_cp" p.n_small_cp 300
  end

let generate ?params rng =
  let p = match params with Some p -> p | None -> default_params ~n:4000 in
  validate p;
  let fixed = p.n_t1 + p.n_t2 + p.n_t3 + p.n_cp + p.n_small_cp in
  let n_mid = int_of_float (float_of_int p.n *. p.frac_mid) in
  if p.n < fixed + n_mid + 10 then
    invalid_arg "Topogen.generate: n too small for the requested tier sizes";
  let n = p.n in
  let levels = Array.make n level_stub in
  (* Id layout: T1s, then T2s, T3s, mid, CPs, small CPs, stubs. *)
  let t1 = Array.init p.n_t1 (fun i -> i) in
  let base_t2 = p.n_t1 in
  let t2 = Array.init p.n_t2 (fun i -> base_t2 + i) in
  let base_t3 = base_t2 + p.n_t2 in
  let t3 = Array.init p.n_t3 (fun i -> base_t3 + i) in
  let base_mid = base_t3 + p.n_t3 in
  let mid = Array.init n_mid (fun i -> base_mid + i) in
  let base_cp = base_mid + n_mid in
  let cps = Array.init p.n_cp (fun i -> base_cp + i) in
  let base_small_cp = base_cp + p.n_cp in
  let small_cps = Array.init p.n_small_cp (fun i -> base_small_cp + i) in
  let base_stub = base_small_cp + p.n_small_cp in
  let stubs = Array.init (n - base_stub) (fun i -> base_stub + i) in
  Array.iter (fun v -> levels.(v) <- level_t1) t1;
  Array.iter (fun v -> levels.(v) <- level_t2) t2;
  Array.iter (fun v -> levels.(v) <- level_t3) t3;
  Array.iter (fun v -> levels.(v) <- level_mid) mid;
  Array.iter (fun v -> levels.(v) <- level_edge) cps;
  Array.iter (fun v -> levels.(v) <- level_edge) small_cps;
  let edges = ref [] in
  let cust_deg = Array.make n 0 in
  let peer_set = Hashtbl.create (4 * n) in
  let key a b = if a < b then (a, b) else (b, a) in
  let add_c2p customer provider =
    if
      customer <> provider
      && not (Hashtbl.mem peer_set (key customer provider))
    then begin
      Hashtbl.replace peer_set (key customer provider) ();
      edges := Topology.Graph.Customer_provider (customer, provider) :: !edges;
      cust_deg.(provider) <- cust_deg.(provider) + 1
    end
  in
  let add_peer a b =
    if a <> b && not (Hashtbl.mem peer_set (key a b)) then begin
      Hashtbl.replace peer_set (key a b) ();
      edges := Topology.Graph.Peer_peer (a, b) :: !edges
    end
  in
  (* Preferential choice among a candidate pool, weighted by current
     customer degree (linear preferential attachment gives the heavy
     tail). *)
  let preferential pool =
    let weights =
      Array.map
        (fun v -> (float_of_int (cust_deg.(v) + 1)) ** 1.35)
        pool
    in
    pool.(Rng.weighted_index rng weights)
  in
  let attach v pool count =
    for _ = 1 to count do
      add_c2p v (preferential pool)
    done
  in
  (* Tier 1 clique. *)
  Array.iter
    (fun a -> Array.iter (fun b -> if a < b then add_peer a b) t1)
    t1;
  (* Tier 2: multihomed to Tier 1s. *)
  Array.iter (fun v -> attach v t1 (2 + Rng.int rng 2)) t2;
  (* Tier 3: multihomed to Tier 2s (occasionally a Tier 1). *)
  Array.iter
    (fun v ->
      attach v t2 (2 + Rng.int rng 1);
      if Rng.float rng 1.0 < 0.2 then attach v t1 1)
    t3;
  (* Mid-size transit: providers mostly among T3s, sometimes T2s, giving
     the hierarchy depth (stub -> mid -> T3 -> T2 -> T1). *)
  let transit23 = Array.append t2 t3 in
  Array.iter
    (fun v ->
      attach v t3 (2 + Rng.int rng 2);
      if Rng.float rng 1.0 < 0.5 then attach v t2 1)
    mid;
  (* Content providers: multihomed to T1/T2. *)
  let t12 = Array.append t1 t2 in
  Array.iter (fun v -> attach v t12 (2 + Rng.int rng 3)) cps;
  (* Small CPs: providers among T2/T3/mid. *)
  let transit_pool = Array.concat [ t2; t3; mid ] in
  Array.iter (fun v -> attach v transit_pool (1 + Rng.int rng 2)) small_cps;
  (* Stubs. *)
  let n_t1_stub =
    int_of_float (float_of_int (Array.length stubs) *. p.frac_t1_stub)
  in
  Array.iteri
    (fun i v ->
      if i < n_t1_stub then
        (* Homed exclusively to Tier 1s ("Tier 1 stubs"). *)
        attach v t1 (1 + Rng.int rng 2)
      else begin
        let count =
          min 6 (1 + Rng.geometric rng ~p:p.stub_provider_p)
        in
        (* Stubs buy transit mostly from mid-size ISPs, occasionally
           straight from a T2/T3 — long provider chains as in the real
           hierarchy. *)
        if Array.length mid > 0 && Rng.float rng 1.0 < 0.75 then
          attach v mid count
        else attach v transit23 count
      end)
    stubs;
  (* Peering.  Draw peers from the designated pools, assortatively. *)
  let draw_peers v pool mean =
    if Array.length pool > 0 && mean > 0 then begin
      let count = 1 + Rng.geometric rng ~p:(1. /. float_of_int mean) in
      for _ = 1 to count do
        add_peer v (Rng.pick rng pool)
      done
    end
  in
  Array.iter (fun v -> draw_peers v t2 p.t2_peer_degree) t2;
  Array.iter
    (fun v -> draw_peers v (Array.append t2 t3) p.t3_peer_degree)
    t3;
  Array.iter (fun v -> draw_peers v transit_pool p.mid_peer_degree) mid;
  let cp_pool = Array.concat [ t2; t3; mid; small_cps ] in
  Array.iter (fun v -> draw_peers v cp_pool p.cp_peer_degree) cps;
  let small_cp_pool = Array.concat [ t3; mid; small_cps ] in
  Array.iter
    (fun v -> draw_peers v small_cp_pool p.small_cp_peer_degree)
    small_cps;
  let n_stub_x =
    int_of_float (float_of_int (Array.length stubs) *. p.frac_stub_x)
  in
  let stub_peer_pool = Array.append small_cps stubs in
  (* Spread stub-x ASes across the non-T1 stubs; with every stub homed
     to Tier 1s there are none to spread over. *)
  let n_free = Array.length stubs - n_t1_stub in
  if n_free > 0 then
    for i = 0 to n_stub_x - 1 do
      let v = stubs.(n_t1_stub + ((i * 7) mod n_free)) in
      draw_peers v stub_peer_pool 2
    done;
  let graph = Topology.Graph.of_edges ~n !edges in
  { graph; cps; levels }

let tiers r =
  Topology.Tiers.classify ~cps:(Array.to_list r.cps) r.graph
