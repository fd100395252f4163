(** Shared helpers for experiment modules: formatting, partition
    aggregation, and metric deltas. *)

val pct : float -> string

val pct_bounds : Metric.H_metric.bounds -> string
(** Render an interval ["[lb, ub]"]. *)

val pct_delta : Metric.H_metric.bounds -> string
(** Render a metric improvement as the change in the pessimistic and the
    optimistic tiebreak worlds: ["+x% / +y%"]. *)

type partition_totals = {
  counts : Metric.Partition.counts array array;
      (** [counts.(p).(grp)]: policy [p]'s counts in group [grp], summed
          over the pairs *)
  h_empty : Metric.H_metric.bounds option;
      (** [H(emptyset)] over the pairs when [h_empty] was given *)
}

val partition_totals :
  ?pool:Parallel.Pool.t ->
  ?groups:int array * int ->
  ?h_empty:Routing.Policy.lp ->
  Topology.Graph.t ->
  Routing.Policy.t list ->
  Metric.H_metric.pair array ->
  partition_totals
(** Partition counts of every policy over the pairs, per source group
    ({!Metric.Partition.count_batch}'s [groups]; one group of every AS
    by default).  Pairs sharing a destination are classified together,
    under every policy at once, by one {!Metric.Partition.count_batch}
    call per destination word ({!Metric.H_metric.batch_plan}): one
    baseline solve per LP variant and one pair of lane closures serve
    all the policies.  The words are split into two runs per domain of
    [pool] (or the default pool); a run reuses its domain's batch
    workspace and one {!Metric.Partition.Scratch.t} that is dropped
    with it.  Bit-identical to summing per-pair
    {!Metric.Partition.count_among}s, for every model.

    [h_empty = lp] also returns the baseline metric [H(emptyset)] over
    the pairs, read off the lane counts of the security-3rd policy of
    variant [lp], which shares the solve of that variant: per
    pair [lb = immune / (n - 2)] and [ub = (immune + protectable) /
    (n - 2)], averaged in pair order.  That is bit-identical to
    {!Metric.H_metric.h_metric} of any model under [lp] at the empty
    deployment.  Raises [Invalid_argument] when given with [groups]. *)

val partition_fractions :
  ?pool:Parallel.Pool.t ->
  Topology.Graph.t ->
  Routing.Policy.t ->
  Metric.H_metric.pair array ->
  float * float * float
(** Average (doomed, protectable, immune) fractions of one policy over
    the pairs: {!partition_totals} of [[policy]]. *)

val h :
  ?pool:Parallel.Pool.t ->
  ?cache:Metric.H_metric.Cache.t ->
  Topology.Graph.t ->
  Routing.Policy.t ->
  Deployment.t ->
  Metric.H_metric.pair array ->
  Metric.H_metric.bounds

val header : string -> string -> string

val rollout_attackers : Context.t -> k:int -> int array
(** Attacker sample shared by the rollout-family experiments (rollout,
    per-destination, early-adopters): the first [scaled k] elements of
    one seeded scaled-30 draw from the non-stub pool (clipped to [k
    <= 30]'s draw; a prefix of a uniform sample is uniform).  Sharing
    the draw makes pair sets nest across experiments, so the shared
    result cache serves repeated deployments across them. *)

val secure_dsts : Context.t -> Deployment.t -> k:int -> int array
(** [scaled k] secure destinations of a deployment, drawn through the
    global {!Context.priority_sample} order (purpose
    ["rollout-securedst"]).  Samples of nested secure sets — rollout
    steps, or the same deployment at different [k] — overlap maximally,
    which is what lets {!Metric.H_metric.Cache} entries carry across
    steps and experiments.  Empty when the deployment secures nobody. *)

val per_destination_changes :
  ?pool:Parallel.Pool.t ->
  ?cache:Metric.H_metric.Cache.t ->
  Topology.Graph.t ->
  Routing.Policy.t ->
  Deployment.t ->
  attackers:int array ->
  dsts:int array ->
  (int * Metric.H_metric.bounds) array
(** Per-destination metric improvement [H_{M',d}(S) - H_{M',d}({})].
    Parallel per destination. *)
