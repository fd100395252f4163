type bounds = { lb : float; ub : float }

let bounds_add a b = { lb = a.lb +. b.lb; ub = a.ub +. b.ub }
let bounds_sub a b = { lb = a.lb -. b.ub; ub = a.ub -. b.lb }
let bounds_improvement after before =
  { lb = after.lb -. before.lb; ub = after.ub -. before.ub }
let bounds_scale k b = { lb = k *. b.lb; ub = k *. b.ub }

let pp_bounds b =
  (* Collapse to a single number exactly when both endpoints render the
     same at the printed precision — an epsilon test at a different
     granularity (the old 5e-4) collapsed bounds that print differently,
     e.g. 0.12% vs 0.16%. *)
  let lo = Printf.sprintf "%.1f%%" (100. *. b.lb) in
  let hi = Printf.sprintf "%.1f%%" (100. *. b.ub) in
  if String.equal lo hi then lo else Printf.sprintf "[%s, %s]" lo hi

type counts = { happy_lb : int; happy_ub : int; sources : int }

let is_source outcome v =
  v <> Routing.Outcome.dst outcome
  &&
  (* Match instead of [<> Some v]: comparing the option structurally
     boxes an allocation per source per trial. *)
  match Routing.Outcome.attacker outcome with
  | Some a -> a <> v
  | None -> true

let happy outcome =
  let n = Routing.Outcome.n outcome in
  let lb = ref 0 and ub = ref 0 and sources = ref 0 in
  for v = 0 to n - 1 do
    if is_source outcome v then begin
      incr sources;
      if Routing.Outcome.happy_lb outcome v then incr lb;
      if Routing.Outcome.happy_ub outcome v then incr ub
    end
  done;
  { happy_lb = !lb; happy_ub = !ub; sources = !sources }

let to_bounds c =
  {
    lb = Prelude.Stats.fraction c.happy_lb c.sources;
    ub = Prelude.Stats.fraction c.happy_ub c.sources;
  }

type pair = { attacker : int; dst : int }

let pairs ?rng ?max_pairs ~attackers ~dsts () =
  let total = ref 0 in
  Array.iter
    (fun m -> Array.iter (fun d -> if m <> d then incr total) dsts)
    attackers;
  let total = !total in
  (match max_pairs with
  | Some k when k < 0 -> invalid_arg "Metric.pairs: max_pairs < 0"
  | _ -> ());
  if total = 0 then [||]
  else
    match max_pairs with
    | Some k when total > k -> (
        match rng with
        | None -> invalid_arg "Metric.pairs: sampling requires ~rng"
        | Some rng ->
            (* Enumeration order matters here: the sampled indices land in
               the same array the historical list-cons construction built
               (reverse enumeration), keeping seeded samples identical. *)
            let all = Array.make total { attacker = 0; dst = 0 } in
            let i = ref (total - 1) in
            Array.iter
              (fun m ->
                Array.iter
                  (fun d ->
                    if m <> d then begin
                      all.(!i) <- { attacker = m; dst = d };
                      decr i
                    end)
                  dsts)
              attackers;
            let idx = Rng.sample_without_replacement rng k total in
            Array.map (fun i -> all.(i)) idx)
    | _ ->
        (* Generate directly in deterministic (attacker, dst) order from
           sorted copies of the inputs — no list-cons, no sort of the
           cross product. *)
        let sa = Array.copy attackers and sd = Array.copy dsts in
        Array.sort Int.compare sa;
        Array.sort Int.compare sd;
        let out = Array.make total { attacker = 0; dst = 0 } in
        let i = ref 0 in
        Array.iter
          (fun m ->
            Array.iter
              (fun d ->
                if m <> d then begin
                  out.(!i) <- { attacker = m; dst = d };
                  incr i
                end)
              sd)
          sa;
        out

let pair_bounds ?ws g policy dep { attacker; dst } =
  let outcome =
    Routing.Reference.compute ?ws g policy dep ~dst ~attacker:(Some attacker)
  in
  to_bounds (happy outcome)

(* --- Destination-major batched evaluation ---------------------------

   Pairs sharing a destination share the whole attacker-free part of the
   routing tree, so they are solved together by {!Routing.Batch}: one
   label-setting drain per <= 63 attackers.  The per-lane happiness
   counts are folded directly off the frozen lane groups — one callback
   per group, not per (lane, AS) — so no per-attacker outcome record is
   ever materialized.  Skipping class-3 (root) groups excludes exactly
   the two non-sources of each lane: the destination everywhere, and the
   lane's own attacker in that lane; every other AS either has an
   ordinary group containing the lane or is unreached (unhappy either
   way).  The counts — and via [Stats.fraction] the float bounds — are
   bit-identical to [pair_bounds], the per-pair oracle over the
   independent {!Routing.Reference} kernel. *)

(* Group the pair positions by destination (first-seen order, keyed
   lookups only — no Hashtbl iteration) and chunk each destination's
   attacker list into words. *)
let batch_plan ?(lanes = Routing.Batch.max_lanes) pairs =
  if lanes < 1 || lanes > Routing.Batch.max_lanes then
    invalid_arg "H_metric.batch_plan: lanes outside 1..max_lanes";
  let by_dst = Hashtbl.create 64 in
  let order = ref [] in
  Array.iteri
    (fun i p ->
      match Hashtbl.find_opt by_dst p.dst with
      | Some l -> l := i :: !l
      | None ->
          Hashtbl.add by_dst p.dst (ref [ i ]);
          order := p.dst :: !order)
    pairs;
  let items = ref [] in
  List.iter
    (fun dst ->
      let slots =
        match Hashtbl.find_opt by_dst dst with
        | Some l -> Array.of_list (List.rev !l)
        | None -> [||]
      in
      let total = Array.length slots in
      let k = ref 0 in
      while !k < total do
        let pos = Array.sub slots !k (min lanes (total - !k)) in
        items := (dst, Array.map (fun i -> pairs.(i).attacker) pos, pos) :: !items;
        k := !k + Array.length pos
      done)
    (List.rev !order);
  Array.of_list (List.rev !items)

(* Per-domain lane counters of [happy_batch]: block 0 tallies the
   upper bound (to-d), block 1 the lower bound (to-d and not to-m). *)
let lane_counts = Domain.DLS.new_key Prelude.Lane_count.create

let happy_batch b =
  let n = Routing.Batch.n b in
  let c = Domain.DLS.get lane_counts in
  Prelude.Lane_count.reset c ~blocks:2 ~max:n;
  Routing.Batch.iter_fixed b (fun ~v:_ ~mask ~word ~parent:_ ->
      let open Routing.Batch.Packed in
      if cls_code_of word <> 3 && to_d_of word then begin
        Prelude.Lane_count.add c 0 mask;
        if not (to_m_of word) then Prelude.Lane_count.add c 1 mask
      end);
  Array.init (Routing.Batch.lanes b) (fun l ->
      {
        happy_lb = Prelude.Lane_count.count c 1 l;
        happy_ub = Prelude.Lane_count.count c 0 l;
        sources = (if Routing.Batch.attacker b ~lane:l < 0 then n - 1 else n - 2);
      })

(* Evaluate [pairs.(idxs.(j))] for every [j], batched by destination,
   with the per-lane bounds folded off the groups.  Returns bounds
   aligned with [idxs].  [report] ticks from the caller domain with the
   number of pairs each of its words covered. *)
let batched_map ?report ?pool ?(domains = 1) g policy dep pairs idxs =
  let items = batch_plan (Array.map (fun i -> pairs.(i)) idxs) in
  let caller = (Domain.self () :> int) in
  let per_item =
    (* Items are few and coarse (one drain each): steal singly. *)
    Parallel.map ?pool ~domains ~chunk:1
      (fun (dst, attackers, pos) ->
        let out =
          Array.map to_bounds
            (happy_batch
               (Routing.Batch.compute
                  ~ws:(Routing.Batch.Workspace.local ())
                  g policy dep ~dst ~attackers))
        in
        (match report with
        | Some f when (Domain.self () :> int) = caller ->
            f (Array.length pos)
        | _ -> ());
        out)
      items
  in
  let out = Array.make (Array.length idxs) { lb = 0.; ub = 0. } in
  Array.iteri
    (fun k (_, _, pos) ->
      Array.iteri (fun l j -> out.(j) <- per_item.(k).(l)) pos)
    items;
  out

let lp_code (p : Routing.Policy.t) =
  let open Routing.Policy in
  match p.lp with Standard -> 0 | Lp_k k -> k

(* When the destination's origin is unsigned, no offer in the engine is
   ever secure: the attacker's announcement is plain BGP, and the
   destination's own root expands with [secure = false], so [is_full] is
   never consulted and the three models' rank encodings all collapse to
   the same (class, length) order.  The outcome — and hence the bounds —
   is therefore independent of both the security model and the
   deployment, and every policy sharing a local-preference variant can
   share one cache entry under one reserved version. *)
let normalized_code p = (lp_code p * 4) + 2

let sec3_standard (p : Routing.Policy.t) =
  let open Routing.Policy in
  match (p.model, p.lp) with
  | Security_third, Standard -> true
  | (Security_first | Security_second | Security_third), _ -> false

module Cache = struct
  module Sc = Prelude.Shard_cache

  type t = {
    store : bounds Sc.t;
    mu : Mutex.t; (* guards the version intern table *)
    mutable versions : (int * int * Deployment.t * int) list;
        (* (topology version, deployment fingerprint, deployment, id) *)
    mutable next : int;
  }

  let create ?shards () =
    {
      store = Sc.create ?shards ();
      mu = Mutex.create ();
      versions = [];
      next = 0;
    }

  let intern t g dep =
    let gv = Topology.Graph.version g in
    let fp = Deployment.fingerprint dep in
    Mutex.lock t.mu;
    let rec find = function
      | [] ->
          let v = t.next in
          t.next <- v + 1;
          t.versions <- (gv, fp, dep, v) :: t.versions;
          v
      | (gv', fp', dep', v) :: rest ->
          if gv' = gv && fp' = fp && Deployment.equal dep' dep then v
          else find rest
    in
    let v = find t.versions in
    Mutex.unlock t.mu;
    v

  (* The unsigned-destination slot must still distinguish topologies (the
     outcome is deployment- and model-independent, not graph-independent):
     one reserved negative version per graph, which can never collide
     with the interned ids (those count up from 0). *)
  let unsigned_version g = -1 - Topology.Graph.version g

  let key policy g dep ~version { attacker; dst } =
    if Deployment.signs_origin dep dst then
      { Sc.k1 = Routing.Policy.code policy; k2 = version; k3 = attacker; k4 = dst }
    else
      (* See [normalized_code]: the outcome for an unsigned destination is
         independent of the model and the deployment, so all such entries
         share one slot per local-preference variant and topology. *)
      {
        Sc.k1 = normalized_code policy;
        k2 = unsigned_version g;
        k3 = attacker;
        k4 = dst;
      }

  let find t policy g dep ~version p =
    Sc.find t.store (key policy g dep ~version p)

  let store t policy g dep ~version p b =
    Sc.store t.store (key policy g dep ~version p) b

  let length t = Sc.length t.store
  let hits t = Sc.hits t.store
  let misses t = Sc.misses t.store

  (* Propagate clean pairs of a deployment step: any (attacker, dst) the
     dirty cone clears keeps its old-deployment value bit-for-bit, so the
     cached entry can be republished under the new version without touching
     the engine.  Returns how many entries were carried. *)
  let carry t policy g cone ~old_dep ~new_dep ~attackers ~dsts =
    let old_v = intern t g old_dep and new_v = intern t g new_dep in
    let carried = ref 0 in
    Array.iter
      (fun dst ->
        Array.iter
          (fun attacker ->
            if
              attacker <> dst
              && not (Routing.Incremental.dirty_pair cone ~attacker ~dst)
            then
              let p = { attacker; dst } in
              match find t policy g old_dep ~version:old_v p with
              | Some b ->
                  store t policy g new_dep ~version:new_v p b;
                  incr carried
              | None -> ())
          attackers)
      dsts;
    !carried

  let clear t =
    Mutex.lock t.mu;
    t.versions <- [];
    t.next <- 0;
    Mutex.unlock t.mu;
    Sc.clear t.store
end

(* Average per-pair bounds, summed in array order.  [h_metric] reduces
   with it, and so do callers that derive per-pair bounds elsewhere, so
   their values stay bit-identical. *)
let mean vals =
  let total = Array.length vals in
  if total = 0 then { lb = 0.; ub = 0. }
  else begin
    let lb = ref 0. and ub = ref 0. in
    Array.iter
      (fun b ->
        lb := !lb +. b.lb;
        ub := !ub +. b.ub)
      vals;
    { lb = !lb /. float_of_int total; ub = !ub /. float_of_int total }
  end

let h_metric ?progress ?pool ?(domains = 1) ?cache g policy dep pairs =
  let total = Array.length pairs in
  if total = 0 then { lb = 0.; ub = 0. }
  else begin
    let find, remember =
      match cache with
      | None -> ((fun _ -> None), fun _ _ -> ())
      | Some c ->
          let version = Cache.intern c g dep in
          ( (fun p -> Cache.find c policy g dep ~version p),
            fun p b -> Cache.store c policy g dep ~version p b )
    in
    (* Pre-resolve the cache per pair, then solve only the misses, whole
       attacker words at a time.  Progress ticks in covered pairs from
       the caller's share of the items. *)
    let vals = Array.make total { lb = 0.; ub = 0. } in
    let miss = ref [] in
    let nmiss = ref 0 in
    Array.iteri
      (fun i p ->
        match find p with
        | Some b -> vals.(i) <- b
        | None ->
            miss := i :: !miss;
            incr nmiss)
      pairs;
    (match progress with
    | Some f ->
        for d = 1 to total - !nmiss do
          f d total
        done
    | None -> ());
    let idxs = Array.of_list (List.rev !miss) in
    if Array.length idxs > 0 then begin
      let caller_done = ref (total - !nmiss) in
      let report =
        match progress with
        | None -> None
        | Some f ->
            Some
              (fun k ->
                for _ = 1 to k do
                  incr caller_done;
                  f !caller_done total
                done)
      in
      let out = batched_map ?report ?pool ~domains g policy dep pairs idxs in
      Array.iteri
        (fun j i ->
          vals.(i) <- out.(j);
          remember pairs.(i) out.(j))
        idxs
    end;
    mean vals
  end

let h_metric_per_dst ?pool ?cache g policy dep ~attackers ~dst =
  let ps =
    Array.to_list attackers
    |> List.filter_map (fun m ->
           if m = dst then None else Some { attacker = m; dst })
    |> Array.of_list
  in
  h_metric ?pool ?cache g policy dep ps

module Evaluator = struct
  type stats = {
    computed : int;
    carried : int;
    cache_hits : int;
    thm_skips : int;
  }

  type t = {
    g : Topology.Graph.t;
    policy : Routing.Policy.t;
    pairs : pair array;
    dsts : int array; (* distinct destinations of [pairs] *)
    pool : Parallel.Pool.t option;
    cache : Cache.t;
    mutable prev : (Deployment.t * bounds array) option;
    mutable st : stats;
  }

  let distinct_dsts pairs =
    let seen = Hashtbl.create 64 in
    let acc = ref [] in
    Array.iter
      (fun p ->
        if not (Hashtbl.mem seen p.dst) then begin
          Hashtbl.add seen p.dst ();
          acc := p.dst :: !acc
        end)
      pairs;
    Array.of_list !acc

  let create ?pool ?cache g policy pairs =
    let cache = match cache with Some c -> c | None -> Cache.create () in
    {
      g;
      policy;
      pairs = Array.copy pairs;
      dsts = distinct_dsts pairs;
      pool;
      cache;
      prev = None;
      st = { computed = 0; carried = 0; cache_hits = 0; thm_skips = 0 };
    }

  let eval t dep =
    let version = Cache.intern t.cache t.g dep in
    let n = Array.length t.pairs in
    let vals = Array.make n { lb = 0.; ub = 0. } in
    let carried = ref 0 and hits = ref 0 and skips = ref 0 in
    let to_compute = ref [] in
    let classify_fresh i p =
      match Cache.find t.cache t.policy t.g dep ~version p with
      | Some b ->
          vals.(i) <- b;
          incr hits
      | None -> to_compute := i :: !to_compute
    in
    (match t.prev with
    | Some (old_dep, old_vals) when Deployment.equal old_dep dep ->
        Array.blit old_vals 0 vals 0 n;
        carried := n
    | Some (old_dep, old_vals) ->
        let cone =
          Routing.Incremental.compute t.g ~old_dep ~new_dep:dep ~dsts:t.dsts
        in
        let thm_ok = sec3_standard t.policy && Routing.Incremental.monotone cone in
        Array.iteri
          (fun i p ->
            if
              not
                (Routing.Incremental.dirty_pair cone ~attacker:p.attacker
                   ~dst:p.dst)
            then begin
              vals.(i) <- old_vals.(i);
              incr carried
            end
            else if thm_ok && old_vals.(i).lb >= 1.0 then begin
              (* Theorem 6.1: under security-3rd with standard local
                 preference, per-source happiness is monotone in the
                 deployment, so a pair already at {1, 1} stays there. *)
              vals.(i) <- old_vals.(i);
              incr skips
            end
            else classify_fresh i p)
          t.pairs
    | None -> Array.iteri classify_fresh t.pairs);
    let idxs = Array.of_list (List.rev !to_compute) in
    if Array.length idxs > 0 then begin
      (* [idxs] holds only pairs the dirty cone (and caches) left
         standing, so clean attackers are already masked out of the lane
         words: a destination with one dirty attacker costs a 1-lane
         solve, not a full word. *)
      let out = batched_map ?pool:t.pool t.g t.policy dep t.pairs idxs in
      Array.iteri (fun j i -> vals.(i) <- out.(j)) idxs
    end;
    (* Publish every value (carried ones included) under the new version:
       sibling evaluators and plain [h_metric ~cache] calls sharing this
       cache then hit on the whole step. *)
    Array.iteri
      (fun i p -> Cache.store t.cache t.policy t.g dep ~version p vals.(i))
      t.pairs;
    t.prev <- Some (dep, vals);
    t.st <-
      {
        computed = t.st.computed + Array.length idxs;
        carried = t.st.carried + !carried;
        cache_hits = t.st.cache_hits + !hits;
        thm_skips = t.st.thm_skips + !skips;
      };
    mean vals

  let values t =
    match t.prev with
    | None -> invalid_arg "Evaluator.values: no deployment evaluated yet"
    | Some (_, vals) -> Array.copy vals

  let stats t = t.st
end
