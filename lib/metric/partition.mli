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
    attacker of a destination at once, under every policy they report,
    with {!count_batch}. *)

type fault = Unblocked_attackers | Shared_solve_standard_lp
(** A deliberately planted bug for the checker's mutant guard
    ({!Check.Mutants}): [Unblocked_attackers] drops the per-lane
    attacker block from the to-d closure of security 1st and 2nd;
    [Shared_solve_standard_lp] runs the shared baseline solve under the
    standard LP whatever the policies' variant.  Production callers
    never pass a fault. *)

module Scratch : sig
  type t
  (** Reusable buffers for {!count_batch}: two lane closures
      ({!Routing.Reach.Lanes}), the LPk lane words, about 30 int arrays
      of the graph's size, and the per-lane class counters
      ({!Prelude.Lane_count}), grown on demand.  Not thread-safe:
      one per domain at a time.  Callers keep one for a run of
      destination words and drop it afterwards, so nothing of size n
      outlives the run. *)

  val create : unit -> t
end

val count_batch :
  ?ws:Routing.Batch.Workspace.t ->
  ?scratch:Scratch.t ->
  ?fault:fault ->
  ?groups:int array * int ->
  Topology.Graph.t ->
  Routing.Policy.t list ->
  dst:int ->
  attackers:int array ->
  counts array array array
(** [count_batch g policies ~dst ~attackers] classifies every attacker
    of one destination under every policy.  Element [.(p).(0).(l)] is
    bit-identical to [count g (List.nth policies p) ~attacker:attackers.(l)
    ~dst], for every model and local-preference variant.  Attackers
    may repeat.

    [groups = (ids, k)] splits the sources into [k] groups: AS [v]
    belongs to group [ids.(v)], and [-1] means "not a source".  The
    result is then indexed [.(p).(grp).(l)], and each element is
    bit-identical to {!count_among} with the members of [grp] as
    sources: a lane's source count is the group's size minus the
    destination and the lane's attacker when they fall in it.
    Without [groups] there is one group holding every AS.

    Each attacker is a {e lane}, a bit of a native-int word, and each
    model derives two lane words per AS — "a route to [d] survives" and
    "a route to [m] can win" — from computations shared across the
    policies:

    - security 3rd and security 2nd with LPk: one batched baseline
      solve ({!Routing.Batch}) per distinct local-preference variant,
      run under the security-3rd policy of that variant.  At S = {}
      nothing is signed, so that solve is the baseline of every model.
      Security 3rd reads its endpoint flags (Corollary E.1); security
      2nd with LPk reads the per-lane class buckets and runs the
      class-respecting customer DP, peer step and provider closure on
      lane words;
    - security 1st and 2nd with the standard LP: one pair of lane
      closures, one rooted at [d] with lane [l] avoiding
      [attackers.(l)] and one rooted at [attackers.(l)] in lane [l]
      avoiding [d] ({!Routing.Reach.Lanes.compute}; Observations
      E.3/E.4, Corollary E.2).

    [ws] serves the batched solves and [scratch] (default: fresh) the
    lane words.  Raises [Invalid_argument] when the lane count is
    outside [1 .. Routing.Batch.max_lanes], an id is out of range, an
    attacker equals [dst], or [groups] has the wrong length, a negative
    count or an id outside [-1 .. k-1]; raises [Failure] for security
    2nd with LPk for [k > 60] or a cyclic customer-provider hierarchy,
    as {!compute} does. *)

val sec3_count_batch :
  ?ws:Routing.Batch.Workspace.t ->
  Topology.Graph.t ->
  Routing.Policy.t ->
  dst:int ->
  attackers:int array ->
  counts array
(** {!count_batch} for one security-3rd policy, without groups.  Raises
    [Invalid_argument] if the policy's model is not [Security_third]. *)
