(** Conservative dirty cones for incremental rollout evaluation.

    Along a deployment rollout S -> S' (Section 5 of the paper), most
    (attacker, destination) pairs keep a bit-identical stable state: the
    engine consults the deployment only through [signs_origin] at the
    destination and [is_full] where {e signed} offers arrive, and signed
    offers travel only inside the Full-restricted perceivable closure of
    the destination ({!Reach.compute} with [~only]).  [compute] exploits
    this to classify every requested destination:

    - {b clean} — no pair with this destination can change: its signing
      status did not change and either it never signs or no changed-Full
      AS lies in its secure-perceivable cone under S or S';
    - {b dirty} — the destination's signing status changed, or some
      changed-Full "witness" sits in the cone.  {!dirty_pair} further
      exempts the pair whose attacker is the {e only} witness (a root
      never validates or re-signs, so its own Full bit is never read).

    A clean verdict is sound (bit-identical outcome guaranteed, for both
    tiebreak modes and every policy model); a dirty verdict is merely
    conservative.  Sizes must match; the deployments need {e not} be
    ordered — non-monotone deltas fall back to testing both cones. *)

type t

val compute :
  Topology.Graph.t ->
  old_dep:Deployment.t ->
  new_dep:Deployment.t ->
  dsts:int array ->
  t
(** Classify the given destinations for the delta [old_dep -> new_dep].
    Costs one Full-restricted {!Reach} closure per candidate destination
    (two for non-monotone deltas), O(edges) each — far below one engine
    run per attacker.  Raises [Invalid_argument] on size mismatches or
    an out-of-range destination. *)

val monotone : t -> bool
(** The delta was pointwise non-decreasing ([Deployment.subset]); the
    precondition for Theorem 6.1-based skipping in the metric layer. *)

val changed_full : t -> int array
(** ASes whose [Full] status differs between the two deployments. *)

val changed_signs : t -> int array
(** ASes whose origin-signing status ([Off] vs not) differs. *)

val dirty_dst : t -> int -> bool
(** Whether any pair with this destination may have changed.  A
    destination outside the [dsts] passed to {!compute} is reported
    dirty (conservative). *)

val dirty_pair : t -> attacker:int -> dst:int -> bool
(** Pair-level refinement of {!dirty_dst}: additionally clean when the
    attacker is the only witness for this destination. *)

val counts : t -> int * int
