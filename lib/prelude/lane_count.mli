(** Bit-sliced per-lane counters.

    A lane word is a native int whose bit [l] (0 ≤ l < {!Bitset.word_bits})
    stands for lane [l] — one attacker of a batched solve.  A counter
    block keeps one count per lane, sliced by bit: plane [i] holds bit
    [i] of every lane's count.  Adding a lane word is then a carry chain
    over the planes (two steps amortized) instead of one step per set
    bit, and a block that counts up to [max] needs only
    [log2 (max + 1)] planes.

    A [t] owns the planes of several blocks, reused across {!reset}s:
    callers keep one per domain (or per scratch) and never pay a fresh
    allocation per word.  Not thread-safe. *)

type t

val create : unit -> t
(** No blocks; call {!reset} before use. *)

val reset : t -> blocks:int -> max:int -> unit
(** [reset t ~blocks ~max] sets every count of blocks [0 .. blocks-1] to
    zero, each block able to count up to [max] per lane.  Grows the
    planes on demand.  Raises [Invalid_argument] if [blocks < 0] or
    [max < 0]. *)

val add : t -> int -> int -> unit
(** [add t blk w] adds one to the count of every lane set in [w] (sign
    bit included) in block [blk]; a zero [w] is a no-op.  Raises
    [Invalid_argument] if [w <> 0] and [blk] is out of range, or if a
    count outgrows the planes sized for the [max] of the last
    {!reset}; [t] is then garbage until the next {!reset}. *)

val count : t -> int -> int -> int
(** [count t blk l] is lane [l]'s count in block [blk].  Raises
    [Invalid_argument] unless [0 <= l < Bitset.word_bits]. *)
