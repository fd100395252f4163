type cls = Doomed | Protectable | Immune | Unreachable

type counts = {
  doomed : int;
  protectable : int;
  immune : int;
  unreachable : int;
  sources : int;
}

let zero = { doomed = 0; protectable = 0; immune = 0; unreachable = 0; sources = 0 }

let add a b =
  {
    doomed = a.doomed + b.doomed;
    protectable = a.protectable + b.protectable;
    immune = a.immune + b.immune;
    unreachable = a.unreachable + b.unreachable;
    sources = a.sources + b.sources;
  }

let fractions c =
  let f n = Prelude.Stats.fraction n c.sources in
  (f (c.doomed + c.unreachable), f c.protectable, f c.immune)

let classify ~d_ok ~m_ok =
  match (d_ok, m_ok) with
  | true, true -> Protectable
  | true, false -> Immune
  | false, true -> Doomed
  | false, false -> Unreachable

(* Security 3rd (any LP variant): the (class, length) prefix of the rank is
   deployment-invariant, so the endpoints of the baseline best-route set
   decide (Corollary E.1). *)
let sec3_partition ~attacker ~dst out =
  Array.init (Routing.Outcome.n out) (fun v ->
      if v = attacker || v = dst then Unreachable
      else
        classify
          ~d_ok:(Routing.Outcome.to_d out v)
          ~m_ok:(Routing.Outcome.to_m out v))

(* Security 1st: Observations E.3 / E.4, exactly. *)
let sec1_partition g ~attacker ~dst n =
  let reach_d = Routing.Reach.compute g ~root:dst ~avoid:attacker () in
  let reach_m = Routing.Reach.compute g ~root:attacker ~avoid:dst () in
  Array.init n (fun v ->
      if v = attacker || v = dst then Unreachable
      else
        classify
          ~d_ok:(Routing.Reach.any reach_d v)
          ~m_ok:(Routing.Reach.any reach_m v))

(* Security 2nd with the standard LP: the best local-preference class is
   deployment-invariant (Corollary E.2); classify by the endpoints of the
   class-restricted perceivable routes. *)
let sec2_standard_partition g ~attacker ~dst n =
  let reach_d = Routing.Reach.compute g ~root:dst ~avoid:attacker () in
  let reach_m = Routing.Reach.compute g ~root:attacker ~avoid:dst () in
  Array.init n (fun v ->
      if v = attacker || v = dst then Unreachable
      else
        let best =
          match
            (Routing.Reach.best_class reach_d v, Routing.Reach.best_class reach_m v)
          with
          | None, None -> None
          | (Some _ as c), None | None, (Some _ as c) -> c
          | Some a, Some b -> Some (if a <= b then a else b)
        in
        match best with
        | None -> Unreachable
        | Some cls ->
            classify
              ~d_ok:(Routing.Reach.in_class reach_d cls v)
              ~m_ok:(Routing.Reach.in_class reach_m cls v))

(* Security 2nd with LPk: the classes are length-refined, and — unlike the
   standard LP — an AS holding a customer route may CHOOSE a peer route of
   a better LPk class, in which case Ex stops it from exporting to peers
   and providers.  Raw perceivable closures therefore overcount.  We use
   instead the {e class-respecting} candidate structure: each AS's LPk
   class bucket is deployment-invariant (the same induction as Corollary
   E.2, over buckets), so an AS only ever holds, and exports, routes of
   its own bucket.  Reachability of each root through chains in which
   every AS's suffix fits its own bucket decides the partition.

   Length sets are tracked as a bitmask for lengths <= k plus an "over k"
   flag (inside the C>k / P>k buckets only existence matters).  Requires
   an acyclic hierarchy; the customer DP runs bottom-up (customers before
   providers) and the provider closure top-down. *)

type bucket =
  | B_cust of int   (* customer route of length j <= k *)
  | B_cust_over     (* customer route of length > k *)
  | B_peer of int
  | B_peer_over
  | B_prov
  | B_none          (* unreached at baseline *)

let bucket_of ~k out v =
  if not (Routing.Outcome.reached out v) then B_none
  else begin
    let len = Routing.Outcome.length out v in
    match Routing.Outcome.route_class out v with
    | Routing.Policy.Customer -> if len <= k then B_cust len else B_cust_over
    | Routing.Policy.Peer -> if len <= k then B_peer len else B_peer_over
    | Routing.Policy.Provider -> B_prov
  end

(* Topological order of the customer-provider hierarchy, customers
   first (Kahn's algorithm over the CSR, with [order] doubling as the
   queue), written to [order.(0 .. n-1)].  Raises [Failure] on a
   cycle. *)
let topo_into g ~order ~indeg =
  let n = Topology.Graph.n g in
  let csr = Topology.Graph.csr g in
  let adj = csr.Topology.Graph.Csr.adj in
  let xs = csr.Topology.Graph.Csr.xs in
  let tail = ref 0 in
  for v = 0 to n - 1 do
    let c =
      Bigarray.Array1.get xs ((3 * v) + 1) - Bigarray.Array1.get xs (3 * v)
    in
    indeg.(v) <- c;
    if c = 0 then begin
      order.(!tail) <- v;
      incr tail
    end
  done;
  let head = ref 0 in
  while !head < !tail do
    let u = order.(!head) in
    incr head;
    for i =
      Bigarray.Array1.get xs ((3 * u) + 2)
      to Bigarray.Array1.get xs ((3 * u) + 3) - 1
    do
      let p = Bigarray.Array1.get adj i in
      indeg.(p) <- indeg.(p) - 1;
      if indeg.(p) = 0 then begin
        order.(!tail) <- p;
        incr tail
      end
    done
  done;
  if !tail <> n then
    failwith "Partition: customer-provider hierarchy has a cycle"

let sec2_lpk_partition ?ws g policy ~k ~attacker ~dst n =
  if k > 60 then failwith "Partition: Lp_k with k > 60 unsupported";
  let base =
    Routing.Engine.compute ?ws g policy (Deployment.empty n) ~dst
      ~attacker:(Some attacker)
  in
  let bucket =
    Array.init n (fun v ->
        if v = dst || v = attacker then B_none else bucket_of ~k base v)
  in
  let full_mask = (1 lsl (k + 1)) - 1 in
  let topo = Array.make n 0 in
  topo_into g ~order:topo ~indeg:(Array.make n 0);
  (* Per root: does each AS have a class-respecting candidate route to it
     within its own bucket? *)
  let reach_root ~root ~offset ~avoid =
    (* What a non-root AS exports upward/sideways: its customer-bucket
       lengths only. *)
    let cust_mask = Array.make n 0 in
    let cust_over = Array.make n false in
    let clamped u =
      if u = root then ((if offset <= k then 1 lsl offset else 0), offset > k)
      else
        match bucket.(u) with
        | B_cust j -> (cust_mask.(u) land (1 lsl j), false)
        | B_cust_over -> (0, cust_over.(u))
        | B_peer _ | B_peer_over | B_prov | B_none -> (0, false)
    in
    let shift (mask, over) =
      ((mask lsl 1) land full_mask, over || mask land (1 lsl k) <> 0)
    in
    (* Customer chains, bottom-up. *)
    Array.iter
      (fun u ->
        if u <> avoid then begin
          let cmask, cover = shift (clamped u) in
          if cmask <> 0 || cover then
            Array.iter
              (fun p ->
                if p <> avoid && p <> root then begin
                  cust_mask.(p) <- cust_mask.(p) lor cmask;
                  cust_over.(p) <- cust_over.(p) || cover
                end)
              (Topology.Graph.providers g u)
        end)
      topo;
    (* Peer candidates: one hop off a customer-bucket neighbor (or the
       root). *)
    let peer_sets v =
      Array.fold_left
        (fun acc u ->
          if u = avoid then acc
          else begin
            let mask, over = shift (clamped u) in
            (fst acc lor mask, snd acc || over)
          end)
        (0, false) (Topology.Graph.peers g v)
    in
    (* avail.(v): v has a candidate to the root within its own bucket.
       Provider buckets close top-down: a provider route to the root via
       u exists iff u is the root or u's chosen route can lead there. *)
    let avail = Array.make n false in
    let avail_non_prov v =
      match bucket.(v) with
      | B_cust j -> cust_mask.(v) land (1 lsl j) <> 0
      | B_cust_over -> cust_over.(v)
      | B_peer j -> fst (peer_sets v) land (1 lsl j) <> 0
      | B_peer_over -> snd (peer_sets v)
      | B_prov | B_none -> false
    in
    for i = n - 1 downto 0 do
      let v = topo.(i) in
      if v <> avoid && v <> root then
        avail.(v) <-
          (match bucket.(v) with
          | B_prov ->
              Array.exists
                (fun u -> u <> avoid && (u = root || avail.(u)))
                (Topology.Graph.providers g v)
          | B_cust _ | B_cust_over | B_peer _ | B_peer_over ->
              avail_non_prov v
          | B_none -> false)
    done;
    avail
  in
  let avail_d = reach_root ~root:dst ~offset:0 ~avoid:attacker in
  let avail_m = reach_root ~root:attacker ~offset:1 ~avoid:dst in
  Array.init n (fun v ->
      if v = attacker || v = dst then Unreachable
      else classify ~d_ok:avail_d.(v) ~m_ok:avail_m.(v))

let compute ?ws g policy ~attacker ~dst =
  let n = Topology.Graph.n g in
  (* Validate here so every model raises the same error, instead of
     leaking whichever internal helper trips first (the security-1st
     path used to surface "Reach.compute: root = avoid" for m = d). *)
  if dst < 0 || dst >= n then
    invalid_arg "Partition.compute: dst out of range";
  if attacker < 0 || attacker >= n then
    invalid_arg "Partition.compute: attacker out of range";
  if attacker = dst then invalid_arg "Partition.compute: attacker = dst";
  match (policy : Routing.Policy.t).model with
  | Security_third ->
      let out =
        Routing.Engine.compute ?ws g policy (Deployment.empty n) ~dst
          ~attacker:(Some attacker)
      in
      sec3_partition ~attacker ~dst out
  | Security_first -> sec1_partition g ~attacker ~dst n
  | Security_second -> (
      match (policy : Routing.Policy.t).lp with
      | Standard -> sec2_standard_partition g ~attacker ~dst n
      | Lp_k k -> sec2_lpk_partition ?ws g policy ~k ~attacker ~dst n)

let count_of_classes classes skip =
  let doomed = ref 0 and protectable = ref 0 and immune = ref 0 in
  let unreachable = ref 0 in
  Array.iteri
    (fun v cls ->
      if not (skip v) then
        match cls with
        | Doomed -> incr doomed
        | Protectable -> incr protectable
        | Immune -> incr immune
        | Unreachable -> incr unreachable)
    classes;
  {
    doomed = !doomed;
    protectable = !protectable;
    immune = !immune;
    unreachable = !unreachable;
    sources = !doomed + !protectable + !immune + !unreachable;
  }

let count ?ws g policy ~attacker ~dst =
  let classes = compute ?ws g policy ~attacker ~dst in
  count_of_classes classes (fun v -> v = attacker || v = dst)

(* The distinct in-range sources as a set; [fn] names the caller in the
   error for an out-of-range id. *)
let source_set ~fn n sources =
  let keep = Prelude.Bitset.create n in
  Array.iter
    (fun v ->
      if v < 0 || v >= n then invalid_arg (fn ^ ": source out of range");
      Prelude.Bitset.add keep v)
    sources;
  keep

let count_among ?ws g policy ~attacker ~dst ~sources =
  let keep =
    source_set ~fn:"Partition.count_among" (Topology.Graph.n g) sources
  in
  let classes = compute ?ws g policy ~attacker ~dst in
  count_of_classes classes (fun v ->
      v = attacker || v = dst || not (Prelude.Bitset.mem keep v))

(* --- Batched partitions ------------------------------------------------

   One call classifies every source for up to [Routing.Batch.max_lanes]
   attackers sharing a destination.  Per AS, each model yields two lane
   words — [d_ok] (a class-respecting route to d survives) and [m_ok] (a
   route to m can win) — and the per-lane class counts fold straight off
   them into bit-sliced {!Prelude.Lane_count} blocks.  An excluded
   source of a lane (the destination everywhere, the lane's own attacker
   in its lane) has both bits clear in that lane, so it is never
   tallied; [unreachable] is the remainder of the lane's source count,
   exactly as {!count_of_classes} skips those slots. *)

(* Buffers of the batched paths: the two lane closures, the LPk words
   and the per-lane class counters, grown on demand.  Fresh size-n
   arrays per destination word would cost more than the closures
   themselves (each is a new major-heap block), so callers reuse one
   across a run of words. *)
module Scratch = struct
  type t = {
    to_d : Routing.Reach.Lanes.t;
    to_m : Routing.Reach.Lanes.t;
    mutable topo : int array;
    mutable indeg : int array;
    mutable estart : int array; (* n + 1: bucket-entry CSR bounds *)
    mutable ecls : int array; (* per entry: class code *)
    mutable elc : int array; (* per entry: length code, k + 1 = over *)
    mutable emask : int array; (* per entry: lanes *)
    mutable cx : int array;
    mutable cm : int array;
    mutable ox : int array;
    mutable ow : int array;
    mutable d_roots : int array;
    mutable m_roots : int array;
    mutable d_ok : int array;
    mutable m_ok : int array;
    counts : Prelude.Lane_count.t;
  }

  let create () =
    {
      to_d = Routing.Reach.Lanes.create ();
      to_m = Routing.Reach.Lanes.create ();
      topo = [||];
      indeg = [||];
      estart = [||];
      ecls = [||];
      elc = [||];
      emask = [||];
      cx = [||];
      cm = [||];
      ox = [||];
      ow = [||];
      d_roots = [||];
      m_roots = [||];
      d_ok = [||];
      m_ok = [||];
      counts = Prelude.Lane_count.create ();
    }
end

(* [a] if it holds [len] elements, else a fresh zeroed array of [len]. *)
let fit a len = if Array.length a >= len then a else Array.make len 0

type fault = Unblocked_attackers | Shared_solve_standard_lp

(* Security 1st and 2nd (standard LP): two lane closures replace the two
   scalar closures of every pair.  The to-d closure is rooted at d in
   every lane, lane l avoiding m_l; the to-m closure seeds lane l at m_l,
   every lane avoiding d. *)
let closures ?fault (sc : Scratch.t) g ~dst ~attackers =
  let lanes = Array.length attackers in
  let everywhere_d = Array.make lanes dst in
  let blocked =
    match fault with
    | None | Some Shared_solve_standard_lp -> attackers
    | Some Unblocked_attackers -> Array.make lanes (-1)
  in
  Routing.Reach.Lanes.compute sc.to_d g ~roots:everywhere_d ~avoid:blocked;
  Routing.Reach.Lanes.compute sc.to_m g ~roots:attackers ~avoid:everywhere_d

(* Security 2nd with LPk, lifted to lane words.  Each (AS, lane) bucket
   comes from one batched baseline solve: the frozen groups of an AS
   become its bucket entries (class, length code, lane mask), with
   length code [k + 1] for "over k".  Every (AS, lane) offers at most
   one length to its providers and peers — its own customer bucket's
   length plus one, clamped to [k + 1] — so the scalar per-pair length
   masks collapse to one lane word per AS, [avail].  The customer DP
   runs customers first, the peer step reads the finished customer
   words, and the provider closure runs providers first, exactly as in
   {!sec2_lpk_partition}.  [b] is the baseline solve of this LPk
   variant toward [dst] for [attackers]; the words are left in
   [sc.d_ok] / [sc.m_ok]. *)
let lpk_words (sc : Scratch.t) g ~k b ~dst ~attackers =
  let n = Topology.Graph.n g in
  sc.topo <- fit sc.topo n;
  sc.indeg <- fit sc.indeg n;
  topo_into g ~order:sc.topo ~indeg:sc.indeg;
  let topo = sc.topo in
  let export lc = if lc < k then lc + 1 else k + 1 in
  (* Bucket entries, one per non-root group, in a CSR keyed by AS
     ([iter_fixed] visits ASes in increasing order, so one pass fills
     it).  Usually all customer entries of an AS export the same code:
     [cx.(u)] is that code ([-1]: no customer entry, [-2]: mixed codes)
     and [cm.(u)] the union of their lanes. *)
  sc.estart <- fit sc.estart (n + 1);
  sc.cx <- fit sc.cx n;
  sc.cm <- fit sc.cm n;
  let estart = sc.estart and cx = sc.cx and cm = sc.cm in
  Array.fill cx 0 n (-1);
  Array.fill cm 0 n 0;
  let entries = ref 0 and next_as = ref 0 in
  Routing.Batch.iter_fixed b (fun ~v ~mask ~word ~parent:_ ->
      let open Routing.Engine.Packed in
      let cls = cls_code_of word in
      if cls <> 3 then begin
        let i = !entries in
        if i >= Array.length sc.ecls then begin
          let grow a = Array.append a (Array.make (Array.length a + n) 0) in
          sc.ecls <- grow sc.ecls;
          sc.elc <- grow sc.elc;
          sc.emask <- grow sc.emask
        end;
        while !next_as <= v do
          estart.(!next_as) <- i;
          incr next_as
        done;
        let len = len_of word in
        let lc = if len <= k then len else k + 1 in
        sc.ecls.(i) <- cls;
        sc.elc.(i) <- lc;
        sc.emask.(i) <- mask;
        entries := i + 1;
        if cls = 0 then begin
          let x = export lc in
          cx.(v) <- (if cx.(v) = -1 || cx.(v) = x then x else -2);
          cm.(v) <- cm.(v) lor mask
        end
      end);
  for v = !next_as to n do
    estart.(v) <- !entries
  done;
  let ecls = sc.ecls and elc = sc.elc and emask = sc.emask in
  let csr = Topology.Graph.csr g in
  let adj = csr.Topology.Graph.Csr.adj in
  let xs = csr.Topology.Graph.Csr.xs in
  sc.ox <- fit sc.ox n;
  sc.ow <- fit sc.ow n;
  let ox = sc.ox and ow = sc.ow in
  let side ~avail ~root_lanes ~offset =
    Array.fill avail 0 n 0;
    Array.fill ox 0 n (-1);
    Array.fill ow 0 n 0;
    let root_x = export (if offset <= k then offset else k + 1) in
    (* Lanes in which [u] offers a route of length code [x] upward or
       sideways: its root lanes, and its available customer buckets. *)
    let offer_scan u x =
      let acc = ref (if x = root_x then root_lanes.(u) else 0) in
      let au = avail.(u) in
      for i = estart.(u) to estart.(u + 1) - 1 do
        if ecls.(i) = 0 && export elc.(i) = x then
          acc := !acc lor (emask.(i) land au)
      done;
      !acc
    in
    (* Each AS's offers, summarized once its customer lanes are final:
       the one code it offers [ox.(u)] with lanes [ow.(u)], [-1] when it
       offers nothing, [-2] when codes are mixed ([offer_scan]). *)
    let summarize u =
      let roots = root_lanes.(u) and c = cx.(u) in
      if c = -2 || (roots <> 0 && c >= 0 && c <> root_x) then ox.(u) <- -2
      else begin
        let w = roots lor (cm.(u) land avail.(u)) in
        if w <> 0 then begin
          ox.(u) <- (if roots <> 0 then root_x else c);
          ow.(u) <- w
        end
      end
    in
    (* Entries of class [cls] at [v] gain the lanes some neighbor in
       CSR segment [seg] offers their length code. *)
    let gather v ~cls ~seg =
      let lo = Bigarray.Array1.get xs ((3 * v) + seg)
      and hi = Bigarray.Array1.get xs ((3 * v) + seg + 1) in
      for i = estart.(v) to estart.(v + 1) - 1 do
        if ecls.(i) = cls then begin
          let x = elc.(i) and m = emask.(i) in
          let gain = ref 0 in
          let j = ref lo in
          while !j < hi && !gain land m <> m do
            let u = Bigarray.Array1.get adj !j in
            let o = ox.(u) in
            if o = x then gain := !gain lor ow.(u)
            else if o = -2 then gain := !gain lor offer_scan u x;
            incr j
          done;
          avail.(v) <- avail.(v) lor (!gain land m)
        end
      done
    in
    for t = 0 to n - 1 do
      let v = topo.(t) in
      gather v ~cls:0 ~seg:0;
      summarize v
    done;
    for v = 0 to n - 1 do
      gather v ~cls:1 ~seg:1
    done;
    for t = n - 1 downto 0 do
      let v = topo.(t) in
      for i = estart.(v) to estart.(v + 1) - 1 do
        if ecls.(i) = 2 then begin
          let m = emask.(i) in
          let gain = ref 0 in
          for j =
            Bigarray.Array1.get xs ((3 * v) + 2)
            to Bigarray.Array1.get xs ((3 * v) + 3) - 1
          do
            let u = Bigarray.Array1.get adj j in
            gain := !gain lor root_lanes.(u) lor avail.(u)
          done;
          avail.(v) <- avail.(v) lor (!gain land m)
        end
      done
    done
  in
  sc.d_roots <- fit sc.d_roots n;
  sc.m_roots <- fit sc.m_roots n;
  sc.d_ok <- fit sc.d_ok n;
  sc.m_ok <- fit sc.m_ok n;
  let d_roots = sc.d_roots and m_roots = sc.m_roots in
  Array.fill d_roots 0 n 0;
  Array.fill m_roots 0 n 0;
  d_roots.(dst) <- (1 lsl Array.length attackers) - 1;
  Array.iteri (fun l m -> m_roots.(m) <- m_roots.(m) lor (1 lsl l)) attackers;
  side ~avail:sc.d_ok ~root_lanes:d_roots ~offset:0;
  side ~avail:sc.m_ok ~root_lanes:m_roots ~offset:1


(* Does [policy] classify off the baseline solve of its LP variant?
   Security 3rd reads its endpoint flags (Corollary E.1) and security
   2nd with LPk its class buckets; security 1st and 2nd with the
   standard LP use the lane closures instead. *)
let needs_solve (policy : Routing.Policy.t) =
  match (policy.model, policy.lp) with
  | Security_third, _ | Security_second, Lp_k _ -> true
  | Security_first, _ | Security_second, Standard -> false

let same_lp (a : Routing.Policy.lp) (b : Routing.Policy.lp) =
  match (a, b) with
  | Standard, Standard -> true
  | Lp_k x, Lp_k y -> x = y
  | Standard, Lp_k _ | Lp_k _, Standard -> false

let count_batch ?ws ?scratch ?fault ?groups g policies ~dst ~attackers =
  let n = Topology.Graph.n g in
  let lanes = Array.length attackers in
  if lanes < 1 || lanes > Routing.Batch.max_lanes then
    invalid_arg "Partition.count_batch: lane count out of range";
  if dst < 0 || dst >= n then
    invalid_arg "Partition.count_batch: dst out of range";
  Array.iter
    (fun m ->
      if m < 0 || m >= n then
        invalid_arg "Partition.count_batch: attacker out of range";
      if m = dst then invalid_arg "Partition.count_batch: attacker = dst")
    attackers;
  let ids, ngroups =
    match groups with
    | None -> (None, 1)
    | Some (ids, k) ->
        if Array.length ids <> n then
          invalid_arg "Partition.count_batch: group array length <> n";
        if k < 0 then invalid_arg "Partition.count_batch: group count < 0";
        Array.iter
          (fun i ->
            if i < -1 || i >= k then
              invalid_arg "Partition.count_batch: group id out of range")
          ids;
        (Some ids, k)
  in
  let group v = match ids with None -> 0 | Some ids -> ids.(v) in
  let policies = Array.of_list policies in
  Array.iter
    (fun (p : Routing.Policy.t) ->
      match (p.model, p.lp) with
      | Security_second, Lp_k k when k > 60 ->
          failwith "Partition: Lp_k with k > 60 unsupported"
      | (Security_first | Security_second | Security_third), _ -> ())
    policies;
  let sc = match scratch with Some sc -> sc | None -> Scratch.create () in
  (* Three lane-counter blocks per (policy, group): protectable, immune,
     doomed, at block [3 * (i * ngroups + grp)] for policy [i].  An AS of
     group -1 is never tallied. *)
  let counts = sc.counts in
  Prelude.Lane_count.reset counts
    ~blocks:(3 * Array.length policies * ngroups)
    ~max:n;
  let tally i v ~d_ok ~m_ok =
    let grp = group v in
    if grp >= 0 then begin
      let blk = 3 * ((i * ngroups) + grp) in
      Prelude.Lane_count.add counts blk (d_ok land m_ok);
      Prelude.Lane_count.add counts (blk + 1) (d_ok land lnot m_ok);
      Prelude.Lane_count.add counts (blk + 2) (m_ok land lnot d_ok)
    end
  in
  (* One pair of lane closures serves security 1st and security 2nd
     with the standard LP. *)
  let closed = ref false in
  let close () =
    if not !closed then begin
      closures ?fault sc g ~dst ~attackers;
      closed := true
    end
  in
  Array.iteri
    (fun i (p : Routing.Policy.t) ->
      let open Routing.Reach.Lanes in
      match (p.model, p.lp) with
      | Security_first, _ ->
          (* Observations E.3 / E.4: any perceivable route to each end. *)
          close ();
          for v = 0 to n - 1 do
            tally i v
              ~d_ok:(customer sc.to_d v lor peer sc.to_d v lor provider sc.to_d v)
              ~m_ok:(customer sc.to_m v lor peer sc.to_m v lor provider sc.to_m v)
          done
      | Security_second, Standard ->
          (* Corollary E.2: the best class over both closures is
             deployment-invariant; each end must be reachable within it. *)
          close ();
          for v = 0 to n - 1 do
            let cd = customer sc.to_d v and cm = customer sc.to_m v in
            let pd = peer sc.to_d v and pm = peer sc.to_m v in
            let vd = provider sc.to_d v and vm = provider sc.to_m v in
            let bc = cd lor cm in
            let bp = (pd lor pm) land lnot bc in
            let bv = (vd lor vm) land lnot (bc lor bp) in
            tally i v
              ~d_ok:((bc land cd) lor (bp land pd) lor (bv land vd))
              ~m_ok:((bc land cm) lor (bp land pm) lor (bv land vm))
          done
      | Security_third, _ | Security_second, Lp_k _ -> ())
    policies;
  (* One baseline solve per LP variant.  At S = {} nothing is signed, so
     the security-3rd solve of a variant is the solve of every model
     under it; it serves every policy of that variant. *)
  let solved = Array.make (Array.length policies) false in
  Array.iteri
    (fun i (p : Routing.Policy.t) ->
      if needs_solve p && not solved.(i) then begin
        let lp =
          match fault with
          | Some Shared_solve_standard_lp -> Routing.Policy.Standard
          | Some Unblocked_attackers | None -> p.lp
        in
        let b =
          Routing.Batch.compute ?ws g
            (Routing.Policy.make ~lp Routing.Policy.Security_third)
            (Deployment.empty n) ~dst ~attackers
        in
        Array.iteri
          (fun j (q : Routing.Policy.t) ->
            if needs_solve q && same_lp q.lp p.lp then begin
              solved.(j) <- true;
              match (q.model, q.lp) with
              | Security_second, Lp_k k ->
                  lpk_words sc g ~k b ~dst ~attackers;
                  for v = 0 to n - 1 do
                    tally j v ~d_ok:sc.d_ok.(v) ~m_ok:sc.m_ok.(v)
                  done
              | (Security_first | Security_second | Security_third), _ ->
                  (* Security 3rd, Corollary E.1: the endpoint flags
                     of the baseline attacked solve decide; root groups
                     (class code 3) are the excluded sources, and lanes
                     without a group are unreached. *)
                  Routing.Batch.iter_fixed b (fun ~v ~mask ~word ~parent:_ ->
                      let open Routing.Engine.Packed in
                      if cls_code_of word <> 3 then
                        tally j v
                          ~d_ok:(if to_d_of word then mask else 0)
                          ~m_ok:(if to_m_of word then mask else 0))
            end)
          policies
      end)
    policies;
  (* A lane's sources in a group: its members minus the destination
     and the lane's attacker. *)
  let size = Array.make ngroups 0 in
  (match ids with
  | None -> size.(0) <- n
  | Some ids ->
      Array.iter (fun i -> if i >= 0 then size.(i) <- size.(i) + 1) ids);
  let excluded grp v = if group v = grp then 1 else 0 in
  Array.mapi
    (fun i _ ->
      Array.init ngroups (fun grp ->
          let blk = 3 * ((i * ngroups) + grp) in
          Array.mapi
            (fun l m ->
              let protectable = Prelude.Lane_count.count counts blk l
              and immune = Prelude.Lane_count.count counts (blk + 1) l
              and doomed = Prelude.Lane_count.count counts (blk + 2) l in
              let sources = size.(grp) - excluded grp dst - excluded grp m in
              {
                doomed;
                protectable;
                immune;
                unreachable = sources - doomed - protectable - immune;
                sources;
              })
            attackers))
    policies

let sec3_count_batch ?ws g policy ~dst ~attackers =
  (match (policy : Routing.Policy.t).model with
  | Security_third -> ()
  | Security_first | Security_second ->
      invalid_arg "Partition.sec3_count_batch: policy is not security 3rd");
  (count_batch ?ws g [ policy ] ~dst ~attackers).(0).(0)
