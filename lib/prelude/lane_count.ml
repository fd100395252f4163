(* Block [b] occupies planes [b * planes .. b * planes + planes - 1] of
   [c].  One spare zero plane follows the last block, so a carry out of
   the last block still lands inside [c] and [add] can report it.  [c]
   may be longer after a reset to fewer or narrower blocks; only the
   used prefix is zeroed. *)
type t = { mutable c : int array; mutable planes : int; mutable blocks : int }

let create () = { c = [||]; planes = 1; blocks = 0 }

let rec bits n = if n = 0 then 0 else 1 + bits (n lsr 1)

let reset t ~blocks ~max =
  if blocks < 0 || max < 0 then invalid_arg "Lane_count.reset";
  let planes = Int.max 1 (bits max) in
  let len = (blocks * planes) + 1 in
  if Array.length t.c < len then t.c <- Array.make len 0
  else Array.fill t.c 0 len 0;
  t.planes <- planes;
  t.blocks <- blocks

let check t blk name = if blk < 0 || blk >= t.blocks then invalid_arg name

(* Ripple [carry] up from plane [i]; the result is one past the last
   plane written.  No bound inside the loop: it is the hot path of
   every lane fold, and [add] checks the end plane instead. *)
let rec ripple c i carry =
  if carry = 0 then i
  else begin
    let p = c.(i) in
    c.(i) <- p lxor carry;
    ripple c (i + 1) (p land carry)
  end

let add t blk w =
  if w <> 0 then begin
    check t blk "Lane_count.add: block out of range";
    let o = blk * t.planes in
    if ripple t.c o w > o + t.planes then
      invalid_arg "Lane_count.add: count exceeds max"
  end

let rec gather c o l i acc =
  if i < o then acc
  else gather c o l (i - 1) ((acc lsl 1) lor ((c.(i) lsr l) land 1))

let count t blk l =
  check t blk "Lane_count.count: block out of range";
  if l < 0 || l >= Bitset.word_bits then
    invalid_arg "Lane_count.count: lane out of range";
  let o = blk * t.planes in
  gather t.c o l (o + t.planes - 1) 0
