(* Backed by an [int array], 63 membership bits per word (the width of
   an OCaml immediate int).  The word layout is public — see the .mli —
   because the batched routing kernel packs one attacker per bit and
   advances a whole word of attackers per CSR scan; keeping the set
   representation and the kernel's lane masks the same width means a
   destination's attacker word can flow between the two without
   re-packing. *)

let word_bits = 63

type t = { words : int array; n : int; mutable card : int }

let create n =
  if n < 0 then invalid_arg "Bitset.create";
  { words = Array.make ((n + word_bits - 1) / word_bits) 0; n; card = 0 }

let length t = t.n
let words t = Array.length t.words

let check t i =
  if i < 0 || i >= t.n then invalid_arg "Bitset: index out of bounds"

let mem t i =
  check t i;
  t.words.(i / word_bits) land (1 lsl (i mod word_bits)) <> 0

let add t i =
  check t i;
  let w = t.words.(i / word_bits) in
  let bit = 1 lsl (i mod word_bits) in
  if w land bit = 0 then begin
    t.words.(i / word_bits) <- w lor bit;
    t.card <- t.card + 1
  end

let remove t i =
  check t i;
  let w = t.words.(i / word_bits) in
  let bit = 1 lsl (i mod word_bits) in
  if w land bit <> 0 then begin
    t.words.(i / word_bits) <- w land lnot bit;
    t.card <- t.card - 1
  end

let clear t =
  Array.fill t.words 0 (Array.length t.words) 0;
  t.card <- 0

let cardinal t = t.card

(* SWAR popcount of a non-negative word (bits 0..61): pair, nibble and
   byte sums, then one multiply gathers the byte sums into the top byte.
   The total is at most 62, so it fits in bits 56..61 and the multiply's
   wraparound never reaches it. *)
let popcount_low x =
  let x = x - ((x lsr 1) land 0x5555_5555_5555_5555) in
  let x = (x land 0x3333_3333_3333_3333) + ((x lsr 2) land 0x3333_3333_3333_3333) in
  let x = (x + (x lsr 4)) land 0x0f0f_0f0f_0f0f_0f0f in
  (x * 0x0101_0101_0101_0101) lsr 56

let popcount_word w = popcount_low (w land max_int) + (w lsr 62)

(* Apply [f] to [base + i] for every set bit [i] of [w], lowest first.
   [b - 1] of the isolated lowest bit [b] is the mask of the bits below
   it, so its popcount is the index — fixed-step, even for the sign bit
   ([min_int - 1] wraps to [max_int], 62 bits). *)
let rec iter_bits f base w =
  if w <> 0 then begin
    let b = w land -w in
    f (base + popcount_low (b - 1));
    iter_bits f base (w lxor b)
  end

let get_word t j =
  if j < 0 || j >= Array.length t.words then
    invalid_arg "Bitset.get_word: word index out of bounds";
  t.words.(j)

let fold_words f t init =
  let acc = ref init in
  for j = 0 to Array.length t.words - 1 do
    acc := f j t.words.(j) !acc
  done;
  !acc

let iter_set f t =
  let words = t.words in
  for j = 0 to Array.length words - 1 do
    let w = words.(j) in
    if w <> 0 then iter_bits f (j * word_bits) w
  done

let fold f t init =
  let acc = ref init in
  iter_set (fun i -> acc := f i !acc) t;
  !acc

let to_list t = List.rev (fold (fun i acc -> i :: acc) t [])

let recount t =
  let c = ref 0 in
  Array.iter (fun w -> c := !c + popcount_word w) t.words;
  t.card <- !c

let same_universe name ~into src =
  if into.n <> src.n then
    invalid_arg (name ^ ": universe sizes differ")

let union_into ~into src =
  same_universe "Bitset.union_into" ~into src;
  for j = 0 to Array.length into.words - 1 do
    into.words.(j) <- into.words.(j) lor src.words.(j)
  done;
  recount into

let diff_into ~into src =
  same_universe "Bitset.diff_into" ~into src;
  for j = 0 to Array.length into.words - 1 do
    into.words.(j) <- into.words.(j) land lnot src.words.(j)
  done;
  recount into
