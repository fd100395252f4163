(** Stable-state computation for one attacker, or none: the one-lane
    face of the batched kernel {!Batch}.

    [compute] solves a one-lane {!Batch} word — the attacker's lane, or
    a {!Batch.no_attacker} lane for normal conditions — and decodes it
    into a full {!Outcome.t}.  It is the convenient entry point for
    callers that want one routing state with every per-AS field:
    anecdotes, the route verifier, the optimizer's specification, the
    mutants and the tests.  Experiments that sweep many attackers of
    one destination solve whole {!Batch} words instead and fold the
    lane groups directly.

    The policy semantics (rank order, export policy, roots) are those
    of {!Batch}; {!Reference} and {!Staged} are the independent oracles
    every lane is held to. *)

type tiebreak = Batch.tiebreak = Bounds | Lowest_next_hop

module Packed = Batch.Packed
(** The packed candidate-word layout, re-exported from {!Batch}. *)

module Workspace : sig
  (** Reusable scratch buffers for {!compute}: a {!Batch.Workspace.t}
      (one-lane group slabs, epoch-stamped per-AS state, the bucket
      queue) plus the outcome record each solve is decoded into.
      Allocating these per call would dominate small-instance runtime.

      A workspace is {e not} thread-safe: use one per domain.  {!local}
      returns the calling domain's private workspace, which is what pool
      workers use. *)

  type t

  val create : int -> t
  (** [create n] preallocates for graphs of up to [n] ASes; the buffers
      grow automatically if a larger graph is computed. *)

  val local : unit -> t
  (** The calling domain's lazily-created private workspace (domain-local
      storage).  Safe to use from any domain, including pool workers —
      each domain gets its own. *)
end

val compute :
  ?tiebreak:tiebreak ->
  ?attacker_claim:int ->
  ?ws:Workspace.t ->
  Topology.Graph.t ->
  Policy.t ->
  Deployment.t ->
  dst:int ->
  attacker:int option ->
  Outcome.t
(** [compute g policy dep ~dst ~attacker] returns the stable routing
    state toward [dst].  [attacker = None] computes normal conditions.
    [tiebreak] (default [Bounds]) and [attacker_claim] (default 1, the
    paper's "m d") are those of {!Batch.compute}.

    [ws] reuses the given workspace's buffers instead of allocating.
    The returned outcome is then owned by the workspace: it stays valid
    only until the next [compute] with the same workspace.  Callers that
    keep outcomes around (or compare two of them) must either use
    distinct workspaces or omit [ws].  Results are bit-identical with and
    without [ws].

    Raises [Invalid_argument] if [attacker = Some dst], ids are out of
    range, or [attacker_claim < 0]. *)
