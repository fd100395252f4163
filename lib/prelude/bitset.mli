(** Compact fixed-capacity set of small non-negative integers.

    Backed by an [int array] with {!word_bits} membership bits per word.
    The word granularity is part of the interface: the batched routing
    kernel ({!Routing.Batch}) identifies "one attacker" with "one bit of
    a word", so a single CSR frontier scan advances up to {!word_bits}
    attackers at once, and the word-level accessors below let callers
    build and consume those lane masks without re-packing. *)

type t

val word_bits : int
(** Membership bits per backing word: 63, the width of an OCaml
    immediate int (bit indices 0..62; the would-be bit 63 does not exist
    in a native [int]).  Word [j] holds members
    [j * word_bits .. j * word_bits + word_bits - 1]. *)

val create : int -> t
(** [create n] is the empty set over the universe [0 .. n-1].
    Raises [Invalid_argument] if [n < 0]. *)

val length : t -> int
(** Universe size. *)

val words : t -> int
(** Number of backing words, [(length + word_bits - 1) / word_bits]. *)

val mem : t -> int -> bool
val add : t -> int -> unit
val remove : t -> int -> unit
(** Membership, insertion, deletion.  All raise [Invalid_argument] when
    the index is outside [0 .. length - 1]. *)

val clear : t -> unit

val cardinal : t -> int
(** Number of members; O(1). *)

val get_word : t -> int -> int
(** [get_word t j] is backing word [j]: bit [b] (0 ≤ b < {!word_bits})
    is set iff [j * word_bits + b] is a member.  Bits at or above the
    universe bound are always 0.  Raises [Invalid_argument] unless
    [0 <= j < words t]. *)

val fold_words : (int -> int -> 'a -> 'a) -> t -> 'a -> 'a
(** [fold_words f t init] folds [f j word acc] over every backing word
    in ascending word order, including zero words — the fold visits
    exactly [words t] entries, so word indices line up across sets of
    the same universe. *)

val iter_set : (int -> unit) -> t -> unit
(** [iter_set f t] applies [f] to every member in ascending order.
    Cost is O(words + cardinal), not O(length): zero words are skipped
    whole, and each set bit is isolated with [w land (-w)] and its index
    found in a fixed number of word operations, which is what makes
    sparse iteration over a large universe cheap. *)

val union_into : into:t -> t -> unit
(** [union_into ~into src] adds every member of [src] to [into], word
    at a time.  Raises [Invalid_argument] when the universe sizes
    differ (a word-wise merge of different universes would silently
    misalign lanes). *)

val diff_into : into:t -> t -> unit
(** [diff_into ~into src] removes every member of [src] from [into],
    word at a time.  Same universe-size check as {!union_into}. *)

val popcount_word : int -> int
(** Number of set bits in a raw word (any OCaml int, sign bit
    included), in a fixed number of word operations. *)

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
val to_list : t -> int list
