(** Shared setup for the paper's experiments: the synthetic AS graph (or
    its IXP-augmented variant), tier classification, and seeded sampling
    of attackers, destinations and sources.

    The paper averages over all |V|^2 attacker-destination pairs on a
    supercomputer; we estimate the same averages from seeded uniform
    samples (DESIGN.md §4).  [scale] multiplies every sample size, so any
    experiment can be re-run closer to exhaustively from the CLI. *)

type t = {
  label : string;  (** "base" or "ixp" *)
  graph : Topology.Graph.t;
  tiers : Topology.Tiers.t;
  cps : int array;
  seed : int;
  scale : float;
  all : int array;        (** every AS *)
  non_stubs : int array;  (** the non-stub attacker pool M' of Section 5 *)
  domains : int;          (** worker-domain count for the experiment pool *)
  pool_cell : Parallel.Pool.t Lazy.t;  (** use {!pool} *)
  cache_cell : Metric.H_metric.Cache.t Lazy.t;  (** use {!cache} *)
  sample_log : (string, int * int) Hashtbl.t;
      (** per-purpose (pool digest, size) audit trail for {!sample} *)
}

val make :
  ?n:int -> ?seed:int -> ?ixp:bool -> ?scale:float -> ?domains:int ->
  unit -> t
(** Defaults: [n = 4000], [seed = 42], [ixp = false], [scale = 1.],
    [domains] from [SBGP_DOMAINS] / the runtime's recommendation.
    Deterministic: the same arguments produce the same context — and the
    experiment output does not depend on [domains] (per-pair results are
    reduced in a fixed order).
    @raise Invalid_argument naming [scale] when [scale] is not finite or
    not positive. *)

val of_graph :
  ?seed:int -> ?scale:float -> ?domains:int -> label:string ->
  Topology.Graph.t -> cps:int array -> t
(** Wrap an externally loaded graph (e.g. real CAIDA data via
    {!Topology.Serial}).
    @raise Invalid_argument naming [scale] as {!make} does. *)

val pool : t -> Parallel.Pool.t
(** The context's worker pool, created lazily on first use ([domains]
    wide; the process-wide default pool is shared when the widths agree).
    Experiments thread this through {!Util}'s helpers. *)

val cache : t -> Metric.H_metric.Cache.t
(** The context's shared per-pair bounds cache, created lazily.  Scoped
    to this context's graph; experiments thread it through {!Util} and
    the {!Metric.H_metric.Evaluator}s so repeated deployments (e.g. the
    empty baseline) are computed once per policy and pair set. *)

val rng : t -> string -> Rng.t
(** A fresh generator derived from the context seed and a purpose string,
    so experiments draw independent but reproducible samples. *)

val scaled : t -> int -> int
(** [scaled ctx k] is [k] multiplied by the context scale (at least 1). *)

val sample : t -> string -> int array -> int -> int array
(** [sample ctx purpose pool k] draws [min k (length pool)] distinct
    elements of [pool].  Each purpose string names one sample stream:
    drawing the same purpose again with the same pool and size is a
    legitimate replay, but reusing it with a {e different} pool or size
    raises [Invalid_argument] — that pattern silently replays one index
    stream over unrelated data. *)

val priority_sample : t -> string -> int array -> int -> int array
(** [priority_sample ctx purpose pool k]: the [min k (length pool)]
    elements of [pool] with the smallest values under a fixed seeded
    pseudo-random priority over AS ids (derived from the context seed and
    [purpose]), returned sorted.  Because the priority is independent of
    the pool, each draw is a uniform [k]-subset of its pool — but unlike
    {!sample}, draws from {e overlapping} pools are coupled: nested pools
    (e.g. the secure sets of successive rollout steps) yield maximally
    overlapping samples.  That makes per-step estimates reusable across
    steps and variants, and turns step-to-step deltas into paired
    comparisons (a variance reduction).  Positionally sound for any pool,
    so purposes may be reused freely across pools — reuse is the point. *)

val tier_members : t -> Topology.Tiers.tier -> int array

val policies : Routing.Policy.t list
(** The three standard-LP security models, in order 1st, 2nd, 3rd. *)

val sec1 : Routing.Policy.t
val sec2 : Routing.Policy.t
val sec3 : Routing.Policy.t

val self_audit : ?options:Check.options -> t -> Check.Diagnostic.report
(** Run the full invariant checker ({!Check.run}) on the context's graph
    and tiers.  Defaults to {!Check.default_options} with the context's
    seed.  The [run] command invokes this before any experiment when
    [SBGP_CHECK=1] or [--check] is given, and aborts on errors. *)

val describe : t -> string
