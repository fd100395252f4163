(** Perceivable-route reachability closures (Definition B.1, Appendix E).

    A route is {e perceivable} at an AS if every hop complies with the
    export policy Ex.  Which ASes have a perceivable customer / peer /
    provider route to a given root is independent of route selection, so
    these closures characterize what any deployment could ever offer —
    the basis of the doomed / protectable / immune partition:

    - customer routes chain through customer-to-provider edges only;
    - a peer route exists where a peer has a perceivable customer route
      (or is the root);
    - provider routes close downward: a provider with any perceivable
      route offers a provider route to each customer.

    Legitimate routes never transit the attacker and attacked routes never
    transit the victim (Section 3.1), hence the [avoid] argument. *)

type t

val compute :
  Topology.Graph.t -> root:int -> ?avoid:int -> ?only:(int -> bool) -> unit -> t
(** Closure of perceivable routes to [root], skipping the AS [avoid]
    entirely.  The root belongs to none of the three sets.

    [only] restricts membership: an AS with [only v = false] joins no
    set and no route may transit it (the root itself is exempt).  With
    [only = Deployment.is_full dep] the closure is exactly the set of
    ASes that could hold a {e secure} perceivable route to the root —
    every hop validates and re-signs — which is what the incremental
    dirty-cone computation ({!Incremental}) uses. *)

val customer : t -> int -> bool
(** Has a perceivable customer route to the root. *)

val peer : t -> int -> bool
val provider : t -> int -> bool

val any : t -> int -> bool
(** Has any perceivable route to the root. *)

val best_class : t -> int -> Policy.route_class option
(** Most preferred class (customer > peer > provider) in which the AS has
    a perceivable route, [None] if unreachable. *)

val in_class : t -> Policy.route_class -> int -> bool

(** {2 Lane-parallel closures}

    The partition layer needs the closures of every attacker sharing a
    destination: rooted at [d] avoiding each [m], and rooted at each [m]
    avoiding [d].  {!Lanes.compute} runs up to
    {!Prelude.Bitset.word_bits} of them in one traversal, one closure per
    bit of a lane word (bit-parallel multi-source BFS). *)

module Lanes : sig
  type t
  (** Reusable state for up to {!Prelude.Bitset.word_bits} closures:
      per AS, three lane words (customer, peer, provider) and the
      worklist.  Buffers grow on demand; a computation allocates
      nothing once they fit the graph.  Not thread-safe: use one per
      domain. *)

  val create : unit -> t

  val compute : t -> Topology.Graph.t -> roots:int array -> avoid:int array -> unit
  (** [compute t g ~roots ~avoid] computes, in lane [l], the closure
      [compute g ~root:roots.(l) ~avoid:avoid.(l) ()] and overwrites
      [t] with it.  Lanes may share a root or an avoided AS.  An avoid
      outside [0 .. n-1] (e.g. [-1]) avoids nothing, as in {!compute}.
      Raises [Invalid_argument] when the lane count is outside
      [1 .. Prelude.Bitset.word_bits], the arrays differ in length, a
      root is out of range, or [roots.(l) = avoid.(l)]. *)

  val customer : t -> int -> int
  (** [customer t v]: the lanes in which [v] has a perceivable customer
      route — bit [l] is [customer (compute ...) v] for lane [l]'s
      closure.  Raises [Invalid_argument] unless [v] is an AS of the
      last computed graph. *)

  val peer : t -> int -> int
  val provider : t -> int -> int
end
