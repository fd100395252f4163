(** The security metric of Section 4.1.

    [H_{M,D}(S)] is the average, over attackers [m] in [M] and destinations
    [d] in [D], of the fraction of source ASes that choose a legitimate
    route to [d] rather than a bogus route through [m].  Because the
    tiebreak step is intradomain and unknown, every quantity comes as a
    lower and an upper bound (Section 4.1): the lower bound assumes an AS
    facing equally-good legitimate and bogus routes picks the bogus one,
    the upper bound the opposite. *)

type bounds = { lb : float; ub : float }

val bounds_add : bounds -> bounds -> bounds
val bounds_sub : bounds -> bounds -> bounds
(** Worst-case interval difference:
    [{ lb = a.lb -. b.ub; ub = a.ub -. b.lb }]. *)

val bounds_improvement : bounds -> bounds -> bounds
(** [bounds_improvement after before] compares like with like — the
    pessimistic-tiebreak worlds and the optimistic-tiebreak worlds:
    [{ lb = after.lb -. before.lb; ub = after.ub -. before.ub }].  This is
    how the paper's Figures 7-12 report changes in the metric. *)

val bounds_scale : float -> bounds -> bounds

val pp_bounds : bounds -> string
(** Renders at 0.1-percentage-point precision; the bounds collapse to a
    single number exactly when both endpoints print identically at that
    precision, so distinct printed bounds are never conflated. *)

type counts = { happy_lb : int; happy_ub : int; sources : int }

val happy : Routing.Outcome.t -> counts
(** Happy-source counts over all sources (every AS except the destination
    and the attacker). *)

val happy_batch : Routing.Batch.t -> counts array
(** Happy-source counts of every lane of a batched solve, folded off
    the lane groups: element [l] equals
    [happy (Routing.Batch.decode b ~lane:l)]. *)

val to_bounds : counts -> bounds

type pair = { attacker : int; dst : int }

val pairs :
  ?rng:Rng.t ->
  ?max_pairs:int ->
  attackers:int array ->
  dsts:int array ->
  unit ->
  pair array
(** The full cross product [attackers x dsts] minus the diagonal, or a
    uniform sample of [max_pairs] of them when the product exceeds
    [max_pairs] ([rng] required in that case). *)

val pair_bounds :
  ?ws:Routing.Reference.Workspace.t ->
  Topology.Graph.t ->
  Routing.Policy.t ->
  Deployment.t ->
  pair ->
  bounds
(** Happy-source bounds of a single (attacker, destination) pair — one
    {!Routing.Reference} solve.  This is the per-pair quantity
    {!h_metric} averages and the unit the incremental machinery caches;
    it runs on the independent oracle kernel, not on the batched one it
    checks, so it serves as the batched paths' oracle in the
    incremental check and the metric tests. *)

(** Concurrent memo cache of per-pair {!bounds}, keyed by
    policy x (topology, deployment) version x pair.  Versions are
    interned by content within a topology ({!Topology.Graph.version} +
    {!Deployment.fingerprint} + {!Deployment.equal}), so structurally
    equal deployments on the same graph share entries, and two graphs
    can never serve each other's values.  Safe to share across
    {!Parallel.Pool} worker domains (sharded, per-shard mutexes).

    Keys are {e normalized}: when the pair's destination does not sign its
    origin under the keyed deployment, no announcement in the stable state
    is ever secure, so the outcome is independent of both the security
    model and the deployment (but {e not} of the topology).  All such
    entries collapse onto one reserved slot per local-preference variant
    and graph — [H(emptyset)] baselines are shared across the three
    models, and unsigned destinations are shared across every deployment
    of a rollout. *)
module Cache : sig
  type t

  val create : ?shards:int -> unit -> t

  val intern : t -> Topology.Graph.t -> Deployment.t -> int
  (** Stable small-int version of a deployment's content on this graph. *)

  val find :
    t ->
    Routing.Policy.t ->
    Topology.Graph.t ->
    Deployment.t ->
    version:int ->
    pair ->
    bounds option
  (** [find t policy g dep ~version p] with [version = intern t g dep].
      The deployment is consulted only for key normalization (does
      [p.dst] sign?), the graph only for the unsigned-destination slot;
      the version carries the identity. *)

  val store :
    t ->
    Routing.Policy.t ->
    Topology.Graph.t ->
    Deployment.t ->
    version:int ->
    pair ->
    bounds ->
    unit

  val carry :
    t ->
    Routing.Policy.t ->
    Topology.Graph.t ->
    Routing.Incremental.t ->
    old_dep:Deployment.t ->
    new_dep:Deployment.t ->
    attackers:int array ->
    dsts:int array ->
    int
  (** [carry t policy g cone ~old_dep ~new_dep ~attackers ~dsts]
      republishes, under [new_dep]'s version, the cached bounds of every
      (attacker, dst) pair the dirty [cone] proves unchanged by the
      [old_dep -> new_dep] delta.  [cone] must have been computed for that
      delta, on graph [g], with a destination set covering [dsts].  Pairs
      with no cached entry under [old_dep] are skipped.  Returns the
      number of entries carried.  This is how per-destination rollout
      columns reuse the previous step without a full {!Evaluator} over
      their pair set. *)

  val length : t -> int
  val hits : t -> int
  val misses : t -> int
  val clear : t -> unit
end

val batch_plan :
  ?lanes:int -> pair array -> (int * int array * int array) array
(** Group pairs by destination (first-seen input order, deterministic)
    and chunk each destination's attacker list into words of at most
    [lanes] (default {!Routing.Batch.max_lanes}) attackers — callers
    that add a normal lane pass one fewer.  Raises [Invalid_argument]
    unless [1 <= lanes <= Routing.Batch.max_lanes].  Each item is
    [(dst, attackers, positions)] where [positions] indexes the input
    array ([attackers.(l)] is [pairs.(positions.(l)).attacker]).
    Every input position appears in exactly one item. *)

val mean : bounds array -> bounds
(** The average of per-pair bounds, summed in array order: the
    reduction {!h_metric} applies to its pairs.  [{ lb = 0.; ub = 0. }]
    for no pairs. *)

val h_metric :
  ?progress:(int -> int -> unit) ->
  ?pool:Parallel.Pool.t ->
  ?domains:int ->
  ?cache:Cache.t ->
  Topology.Graph.t ->
  Routing.Policy.t ->
  Deployment.t ->
  pair array ->
  bounds
(** [H_{M,D}(S)] estimated over the given attacker-destination pairs.
    Pairs sharing a destination are solved together by the
    destination-major batched kernel — one routing-tree drain per
    {!Routing.Batch.max_lanes} attackers — with per-lane counts folded
    straight off the packed lane groups; each pair's bounds are
    bit-identical to {!pair_bounds}.  [pool] fans the destination words
    out over a persistent worker pool; otherwise [domains > 1] borrows
    the default pool (the words are independent and the graph is
    read-only).  Every domain reuses its private
    {!Routing.Batch.Workspace}, and the per-pair results are reduced in
    input order, so the value is bit-identical whatever the parallelism.

    [progress done total] ticks once per covered pair: first for the
    cache hits, then as the calling domain finishes its words.  On a
    pool it is invoked from the calling domain only, for the caller's
    share of the stolen words — it still ticks throughout the job but
    [done] stops short of [total]; it never fires from a worker domain.

    [cache] memoizes per-pair bounds across calls (hits skip the kernel
    entirely); the cache must belong to this graph. *)

val h_metric_per_dst :
  ?pool:Parallel.Pool.t ->
  ?cache:Cache.t ->
  Topology.Graph.t ->
  Routing.Policy.t ->
  Deployment.t ->
  attackers:int array ->
  dst:int ->
  bounds
(** [H_{M,d}(S)] for a single destination. *)

(** Incremental evaluation of [H] along a deployment trajectory.

    An evaluator owns a pair set and remembers the per-pair bounds of the
    last deployment it saw.  [eval] on the next deployment computes the
    {!Routing.Incremental} dirty cone of the delta and recomputes {e only}
    the dirty pairs, carrying the remembered bounds for the clean ones —
    plus a Theorem 6.1 shortcut: under security-3rd / standard local
    preference on a monotone delta, a pair already at [{1, 1}] provably
    stays there.  Results are bit-identical to a from-scratch
    {!h_metric} on every step (same input-order reduction, and carried
    values are sound by construction); the [incremental] check pass and
    the qcheck properties enforce this.

    All values are also published to the (shareable) {!Cache}, so sibling
    evaluators over overlapping pair sets reuse each other's work. *)
module Evaluator : sig
  type t

  type stats = {
    computed : int;  (** pairs recomputed with the engine *)
    carried : int;  (** pairs carried clean from the previous step *)
    cache_hits : int;  (** pairs served from the shared cache *)
    thm_skips : int;  (** pairs carried via the Theorem 6.1 shortcut *)
  }

  val create :
    ?pool:Parallel.Pool.t ->
    ?cache:Cache.t ->
    Topology.Graph.t ->
    Routing.Policy.t ->
    pair array ->
    t
  (** A fresh evaluator (no deployment seen yet).  [pool] parallelizes
      the recomputed pairs; omitted, they run sequentially.  [cache]
      shares memoized bounds with other users; omitted, the evaluator
      creates a private one. *)

  val eval : t -> Deployment.t -> bounds
  (** [H] over the evaluator's pairs at [dep], reusing everything the
      delta from the previously evaluated deployment provably preserves.
      Deployments may arrive in any order (non-monotone deltas just get a
      wider cone), but consecutive similar deployments reuse the most. *)

  val values : t -> bounds array
  (** Per-pair bounds at the last evaluated deployment, in pair order.
      Raises [Invalid_argument] before the first {!eval}. *)

  val stats : t -> stats
  (** Cumulative pair-level counters across all {!eval} calls. *)
end
