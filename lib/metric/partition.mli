(** The doomed / protectable / immune partition of Section 4.3 and
    Appendix E.

    For an attacker-destination pair [(m, d)] and a routing model, every
    source AS falls into one of:

    - {b doomed}: routes through [m] no matter which ASes deploy S*BGP;
    - {b immune}: routes to [d] no matter which ASes deploy S*BGP;
    - {b protectable}: the outcome depends on the deployment;
    - {b unreachable}: no perceivable route to either — it can never be
      happy, so it counts with the doomed when bounding the metric.  (The
      paper's graphs are connected enough that this class is empty; it can
      appear in small synthetic graphs.)

    Method per model:
    - security 3rd: Corollary E.1 — the stable route's class and length
      are deployment-invariant, so the endpoints of the baseline (S = {})
      best-route set decide the class.  This also holds for the LPk
      policy variants (the rank prefix above security is
      deployment-invariant).
    - security 2nd: Corollary E.2 — the stable route's {e local-preference
      class} is deployment-invariant; the AS is classified by which
      endpoints its class-restricted perceivable routes can reach.  For
      LPk policies the classes are length-refined, which we resolve over
      the class-respecting candidate structure (each AS only ever holds
      and exports routes of its own deployment-invariant class bucket).
      Note that under security 2nd, [Protectable] is an
      over-approximation — inherited from the paper's method: a
      class-compatible perceivable route to the destination may pass
      through an AS that never {e chooses} the needed suffix (e.g. a
      transit AS whose customer-class route is always the bogus one), so
      some "protectable" ASes are de-facto doomed.  [Doomed] and
      [Immune] are exact, so the Figure-3 bounds derived from them
      remain valid; our exhaustive tests quantify over every deployment
      on small graphs to check exactly this.
    - security 1st: Observations E.3/E.4 exactly — doomed iff no
      perceivable route to [d] avoids [m]; immune iff no perceivable route
      to [m] avoids [d].  (The paper approximates "everything is
      protectable"; the exact computation differs by a negligible
      fraction, which our reproduction reports.) *)

type cls = Doomed | Protectable | Immune | Unreachable

type counts = {
  doomed : int;
  protectable : int;
  immune : int;
  unreachable : int;
  sources : int;
}

val zero : counts
val add : counts -> counts -> counts

val fractions : counts -> float * float * float
(** (doomed+unreachable, protectable, immune) as fractions of sources. *)

val compute :
  ?ws:Routing.Engine.Workspace.t ->
  Topology.Graph.t ->
  Routing.Policy.t ->
  attacker:int ->
  dst:int ->
  cls array
(** Per-source classification; the attacker's and destination's own slots
    are [Unreachable] and must be ignored by callers.  LPk policies under
    security 2nd require an acyclic customer-provider hierarchy and raise
    [Failure] otherwise.  [ws] reuses the given engine workspace for the
    internal baseline computation (see {!Routing.Engine.compute}). *)

val count :
  ?ws:Routing.Engine.Workspace.t ->
  Topology.Graph.t ->
  Routing.Policy.t ->
  attacker:int ->
  dst:int ->
  counts

val count_among :
  ?ws:Routing.Engine.Workspace.t ->
  Topology.Graph.t ->
  Routing.Policy.t ->
  attacker:int ->
  dst:int ->
  sources:int array ->
  counts
(** {!count} restricted to the distinct ASes of [sources] (the
    attacker and the destination still excluded).  Raises
    [Invalid_argument] when a source is out of range. *)

(** {2 Batched partitions}

    {!compute}, {!count} and {!count_among} classify one pair at a
    time and are the oracle.  Production callers classify every
    attacker of a destination at once with {!count_batch}. *)

type fault = Unblocked_attackers
(** A deliberately planted bug for the checker's mutant guard
    ({!Check.Mutants}): [Unblocked_attackers] drops the per-lane
    attacker block from the to-d closure of security 1st and 2nd.
    Production callers never pass a fault. *)

module Scratch : sig
  type t
  (** Reusable buffers for {!count_batch}: two lane closures
      ({!Routing.Reach.Lanes}) and the LPk lane words, about 30 int
      arrays of the graph's size, grown on demand.  Not thread-safe:
      one per domain at a time.  Callers keep one for a run of
      destination words and drop it afterwards, so nothing of size n
      outlives the run. *)

  val create : unit -> t
end

val count_batch :
  ?ws:Routing.Batch.Workspace.t ->
  ?scratch:Scratch.t ->
  ?fault:fault ->
  ?sources:int array ->
  Topology.Graph.t ->
  Routing.Policy.t ->
  dst:int ->
  attackers:int array ->
  counts array
(** [count_batch g policy ~dst ~attackers] returns, in input order, the
    counts of every attacker of one destination.  Element [l] is
    bit-identical to [count g policy ~attacker:attackers.(l) ~dst], or
    with [sources] to [count_among ... ~sources], for every model and
    local-preference variant.  Attackers may repeat.

    Each attacker is a {e lane}, a bit of a native-int word, and each
    model derives two lane words per AS — "a route to [d] survives" and
    "a route to [m] can win" — from one shared computation:

    - security 3rd: the endpoint flags of one batched baseline solve
      ({!Routing.Batch}, Corollary E.1);
    - security 1st and 2nd with the standard LP: one lane closure
      rooted at [d] with lane [l] avoiding [attackers.(l)], and one
      rooted at [attackers.(l)] in lane [l] avoiding [d]
      ({!Routing.Reach.compute_lanes}; Observations E.3/E.4, Corollary
      E.2);
    - security 2nd with LPk: one batched baseline solve for the
      per-lane class buckets, then the class-respecting customer DP,
      peer step and provider closure on lane words.

    [ws] serves the batched solve and [scratch] (default: fresh) the
    lane words.  Raises [Invalid_argument] when the
    lane count is outside [1 .. Routing.Batch.max_lanes], an id or a
    source is out of range, or an attacker equals [dst]; raises
    [Failure] for LPk with [k > 60] or a cyclic customer-provider
    hierarchy, as {!compute} does. *)

val sec3_count_batch :
  ?ws:Routing.Batch.Workspace.t ->
  Topology.Graph.t ->
  Routing.Policy.t ->
  dst:int ->
  attackers:int array ->
  counts array
(** {!count_batch} restricted to security 3rd.  Raises
    [Invalid_argument] if the policy's model is not [Security_third]. *)
