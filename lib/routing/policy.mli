(** Routing policy models (paper Sections 2.2.1-2.2.2 and Appendix K).

    A route available at an AS is abstracted as a triple
    [(route_class, length, secure)]:
    - [route_class] — whether the next hop is a customer, peer or provider;
    - [length] — AS-path length as perceived by the AS;
    - [secure] — the route was learned via S*BGP end to end.

    The decision process ranks such triples.  The local-preference step is
    either the [Standard] Gao-Rexford ranking (customer > peer > provider)
    or the [Lp_k k] variant of Appendix K, which prefers customer and peer
    routes interleaved by length up to length [k].  The security step
    [SecP] is inserted according to the model:

    - {b security 1st}: SecP > LP > SP > TB
    - {b security 2nd}: LP > SecP > SP > TB
    - {b security 3rd}: LP > SP > SecP > TB *)

type model = Security_first | Security_second | Security_third

type lp = Standard | Lp_k of int
(** [Lp_k k] requires [k >= 1].  [Lp_k] with [k >= max_len] behaves as the
    "k to infinity" variant discussed in Appendix K. *)

type t = private { model : model; lp : lp }

val make : ?lp:lp -> model -> t
(** Raises [Invalid_argument] if [lp] is [Lp_k k] with [k < 1]. *)

val all_models : model list
val model_name : model -> string
val lp_name : lp -> string

val code : t -> int
(** A dense injective code of (model, LP variant): the model index
    (0-2) plus 4 × k for [Lp_k k], 0 for the standard LP.  Keys the
    metric cache and the batch kernel's rank-table reuse. *)

val name : t -> string

type route_class = Customer | Peer | Provider

val class_name : route_class -> string

val compare_routes :
  t -> route_class * int * bool -> route_class * int * bool -> int
(** Reference comparator: negative if the first route is {e preferred}.
    Implements the decision process literally (lexicographic on the steps
    in model order); [rank] below is order-isomorphic to it, which is
    checked by property tests. *)

val rank : t -> max_len:int -> route_class -> len:int -> secure:bool -> int
(** Dense integer encoding of preference: smaller is better.
    [max_len] bounds the path length (inclusive); [len] must lie in
    [1 .. max_len].  Two routes receive the same rank iff they agree on
    class, length and security — i.e. iff only the tiebreak step TB could
    distinguish them. *)

val max_rank : t -> max_len:int -> int
(** Exclusive upper bound on [rank] values. *)

type policy = t
(** Alias so {!Rank_table} can name the enclosing policy type. *)

module Rank_table : sig
  (** {!rank}, hoisted out of the inner loop.

      For a fixed (policy, [max_len]) the rank encoding is piecewise
      affine in the length, with a single breakpoint at the Lp_k
      refinement limit: every (class, security) combination is one
      [mul * len + add] map per piece.  {!make} derives the 12 entries by
      probing {!rank} itself, so table lookups are bit-identical to
      {!rank} by construction (also property-tested); the engine's hot
      path then needs two array reads, a multiply and an add per offered
      route — no variant dispatch, no bounds checks, no [invalid_arg]
      guard.

      Callers index with [j = 2 * cls_code + sbit (+ 6 when len > kk)]
      where [cls_code] is 0 customer / 1 peer / 2 provider and [sbit] is
      0 secure / 1 insecure; the fields are exposed read-only so the
      kernel can inline the lookup. *)

  type t = private {
    kk : int;  (** breakpoint: entries [0..5] cover [len <= kk] *)
    mul : int array;  (** 12 length multipliers *)
    add : int array;  (** 12 offsets *)
    max_len : int;  (** lengths valid in [1 .. max_len] *)
    max_rank : int;  (** = [max_rank policy ~max_len] *)
  }

  val make : policy -> max_len:int -> t
  (** Raises [Invalid_argument] when [max_len < 1]. *)

  val rank : t -> cls_code:int -> len:int -> sbit:int -> int
  (** Table lookup; equals
      [rank policy ~max_len cls ~len ~secure] for in-range lengths.
      No validation: out-of-range [len]/[cls_code]/[sbit] is undefined. *)
end
