(** Destination-major batched stable-state kernel — the one production
    label-setting solver.  {!Engine.compute} is its one-lane face;
    {!Reference} and {!Staged} are its independent oracles.

    The solve generalizes the multi-stage BFS of Appendix B to a
    label-setting (Dijkstra-style) computation over the dense preference
    ranks of {!Policy.rank}.  Ranks are strictly monotone along route
    extensions for every model and LP variant, so fixing ASes in rank
    order reproduces the stable state of the staged algorithm (and, by
    Lemmas B.2-B.15, of the S*BGP convergence process).  Export policy
    (Ex): an AS announces a customer route to everyone and any other
    route to its customers only; the destination announces its prefix to
    everyone; the attacker announces the bogus route "m d" to all its
    neighbors via legacy BGP.

    Pairs that share a destination share the attack-free part of the
    stable state, so each attacker gets a {e lane} — a bit of a
    native-int word — and one label-setting computation serves the
    whole word.  A lane may carry no attacker ({!no_attacker}): it then
    holds normal conditions, next to the attacked lanes.  Per-AS
    candidate state is a set of {e groups} [(mask, word, parent)]: the
    lanes in [mask] share the packed candidate [word] ({!Packed}) and
    representative next hop [parent]; masks are pairwise disjoint.  Far
    from the attackers one full-word group advances every lane with one
    CSR row scan, one rank compare and one queue push; near them groups
    split toward per-lane work.

    Every lane is {b bit-identical} to {!Reference.compute} under that
    lane's attacker ([None] for a {!no_attacker} lane), for every model
    and both tiebreaks: ranks are injective on (class, length, security)
    and both tiebreaks are order-independent merges.  qcheck properties,
    [sbgp check --kernel] (whose batched pass also solves words mixing a
    normal lane with attacked lanes) and the bench identity gate enforce
    it. *)

type tiebreak =
  | Bounds
      (** Leave TB unresolved: track every equally-best route's endpoint,
          yielding the lower/upper happiness bounds of Section 4.1. *)
  | Lowest_next_hop
      (** Deterministic TB: among equally-best routes keep the one whose
          next hop has the smallest AS number.  Used for cross-validation
          with the dynamic simulator. *)

module Packed : sig
  (** The packed candidate-word layout of the kernel, LSB-first:

      {v
        bit  0      to_m   — some equally-best route leads to the attacker
        bit  1      to_d   — some equally-best route leads to the destination
        bit  2      secure — the route is fully signed and validated
        bits 3-4    cls    — 0 customer / 1 peer / 2 provider / 3 root
        bits 5-28   len    — perceived path length (max_len = n + 1 < 2^24)
        bits 29-62  rank   — Policy.rank of (cls, len, secure)
      v}

      The rank is injective on (cls, len, secure), so equal ranks imply
      equal decoded fields — the property that lets one word stand for
      a whole lane group.  Metric folds and the divergence checker
      decode group words with it. *)

  val to_m_flag : int
  val to_d_flag : int
  val secure_flag : int
  val cls_shift : int
  val len_shift : int
  val len_mask : int
  val rank_shift : int

  val pack :
    rank:int -> cls_code:int -> len:int -> secure:bool -> flags:int -> int
  (** [flags] is a pre-or'd subset of [to_m_flag lor to_d_flag]. *)

  val rank_of : int -> int
  val len_of : int -> int
  val cls_code_of : int -> int
  val secure_of : int -> bool
  val to_d_of : int -> bool
  val to_m_of : int -> bool

  val describe : int -> string
  (** All decoded fields of a packed word, for divergence diagnostics. *)
end

val max_lanes : int
(** Maximum lanes per batch: {!Prelude.Bitset.word_bits} = 63, the
    width of an OCaml immediate int. *)

val no_attacker : int
(** The lane value for normal conditions ([-1]): such a lane gets no
    bogus root, {!decode} gives it [attacker = None], and it may share a
    word with attacked lanes of the same destination.  Any other
    negative id is out of range. *)

module Workspace : sig
  (** Reusable scratch for {!compute}: flat group slabs (one slot per
      AS and lane of the widest word seen — a word of [L] lanes holds
      at most [L] disjoint groups per AS), per-AS lane masks revalidated
      by an epoch stamp, the bucket queue and the last rank table.  Not
      thread-safe; use one per domain ({!local}). *)

  type t

  val create : int -> t
  (** [create n] preallocates for graphs of up to [n] ASes; buffers grow
      automatically when a larger graph is computed. *)

  val local : unit -> t
  (** The calling domain's lazily created private workspace
      (domain-local storage), for pool workers. *)
end

type t
(** The batched stable state: frozen lane groups for every reached AS.
    A result borrows its workspace's buffers — it stays valid only
    until the next {!compute} on the same workspace; the accessors
    below raise [Invalid_argument] on a stale result. *)

val compute :
  ?tiebreak:tiebreak ->
  ?attacker_claim:int ->
  ?ws:Workspace.t ->
  Topology.Graph.t ->
  Policy.t ->
  Deployment.t ->
  dst:int ->
  attackers:int array ->
  t
(** [compute g policy dep ~dst ~attackers] computes the stable routing
    state toward [dst] under attacker [attackers.(l)] in lane [l], for
    all lanes at once; a {!no_attacker} lane holds normal conditions.
    Default tiebreak is [Bounds].

    [attacker_claim] is the length of the bogus path every attacker
    claims (default 1 — the paper's "m d" announcement).  [0] models an
    unauthorized origination of the victim's prefix (a classic prefix
    hijack, only meaningful when origin authentication is absent);
    larger values model longer fabricated paths "m x .. d".

    [ws] reuses the given workspace's buffers; without it a fresh
    workspace sized for this word is allocated.

    Raises [Invalid_argument] when the lane count is outside
    [1 .. max_lanes], any id other than {!no_attacker} is out of range,
    some attacker equals [dst], or [attacker_claim < 0]. *)

val n : t -> int
(** ASes in the solved graph. *)

val dst : t -> int
val lanes : t -> int

val attacker : t -> lane:int -> int
(** Lane [l]'s attacker, or {!no_attacker}. *)

val iter_fixed : t -> (v:int -> mask:int -> word:int -> parent:int -> unit) -> unit
(** Iterate every frozen group of every reached AS.  [mask] is the lane
    set (nonempty; masks of one AS are disjoint), [word] the shared
    packed candidate — decode with {!Packed} — and [parent] the
    representative next hop.  Root groups carry class code 3: the
    destination's full-lane root and, at each attacker, the bogus-origin
    root of its own lane.  Metric folds consume groups directly (one
    callback per group, not per lane), which is how per-attacker
    happiness and partition counts are accumulated without materializing
    [lanes t] outcome records.  ASes unreached in some lane simply have
    no group containing that lane. *)

val decode : ?into:Outcome.t -> t -> lane:int -> Outcome.t
(** [decode t ~lane] expands one lane into a full {!Outcome.t},
    bit-identical to [Reference.compute ~attacker] for that lane's
    attacker ([None] for a {!no_attacker} lane).  [into] reuses an
    outcome record (the result may be a fresh one if [into] is too
    small). *)

val decode_into : t -> lane:int -> Outcome.t -> unit
(** [decode_into t ~lane o] is {!decode} into an outcome the caller has
    already created or reset for this lane's destination and attacker;
    it allocates nothing.  {!Engine.compute} decodes through it.
    Raises [Invalid_argument] if [o] is set up for another size,
    destination or attacker. *)

val group_of : t -> v:int -> lane:int -> (int * int * int) option
(** [group_of t ~v ~lane] is the [(mask, word, parent)] group at AS [v]
    whose mask contains [lane], or [None] if [v] is unreached in that
    lane.  Diagnostic accessor for the divergence checker's packed-lane
    reports. *)
