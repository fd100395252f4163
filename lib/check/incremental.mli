(** Differential check of incremental rollout evaluation.

    Replays a seeded deployment trajectory — several monotone upgrade
    steps from the empty deployment plus one final downgrade — through a
    {!Metric.H_metric.Evaluator} and demands that every per-pair bound
    and every aggregate it produces is {e bit-identical} to a
    from-scratch engine computation at that step.  A second cache follows
    the same chain through {!Metric.H_metric.Cache.carry} (the reuse path
    of the per-destination rollout columns) plus [h_metric ~cache], and
    each of its entries is held to the same standard.  Any divergence is
    an [inc/divergence] error naming the policy, step, and offending
    (attacker, destination) pair. *)

val analyze :
  ?pool:Parallel.Pool.t ->
  ?steps:int ->
  seed:int ->
  pairs:int ->
  Topology.Graph.t ->
  Routing.Policy.t list ->
  int * Diagnostic.t list
(** [(items, diags)]: [items] counts (policy, step, pair) combinations
    compared.  [steps] (default 3) is the number of monotone steps; the
    non-monotone tail step is always appended.  [pool] additionally
    routes the evaluator's recomputations through worker domains, so the
    comparison also covers the sharded cache under parallelism. *)
