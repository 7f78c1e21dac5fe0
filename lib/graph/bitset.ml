type t = { words : int array; n : int }

(* One bit per element, 63 per native int word.  Iteration, cardinality
   and emptiness all skip over zero words, so sparse sets over large
   universes (the common case in the cover engines) cost O(words +
   members) instead of O(universe). *)

let bits = 63
let word_count n = (n + bits - 1) / bits
let create n = { words = Array.make (word_count n) 0; n }
let copy t = { words = Array.copy t.words; n = t.n }

let check t i =
  if i < 0 || i >= t.n then invalid_arg "Bitset: index out of universe"

let add t i =
  check t i;
  let w = i / bits in
  t.words.(w) <- t.words.(w) lor (1 lsl (i mod bits))

let remove t i =
  check t i;
  let w = i / bits in
  t.words.(w) <- t.words.(w) land lnot (1 lsl (i mod bits))

let mem t i =
  check t i;
  t.words.(i / bits) land (1 lsl (i mod bits)) <> 0

let popcount_byte =
  let table = Array.make 256 0 in
  for i = 1 to 255 do
    table.(i) <- table.(i lsr 1) + (i land 1)
  done;
  fun b -> table.(b)

let popcount w =
  popcount_byte (w land 0xff)
  + popcount_byte ((w lsr 8) land 0xff)
  + popcount_byte ((w lsr 16) land 0xff)
  + popcount_byte ((w lsr 24) land 0xff)
  + popcount_byte ((w lsr 32) land 0xff)
  + popcount_byte ((w lsr 40) land 0xff)
  + popcount_byte ((w lsr 48) land 0xff)
  + popcount_byte (w lsr 56)

let cardinal t =
  let acc = ref 0 in
  Array.iter (fun w -> if w <> 0 then acc := !acc + popcount w) t.words;
  !acc

let is_empty t = Array.for_all (fun w -> w = 0) t.words
let clear t = Array.fill t.words 0 (Array.length t.words) 0

(* index of the single set bit of [b] *)
let bit_index b =
  let i = ref 0 and b = ref b in
  if !b land 0xFFFFFFFF = 0 then begin
    i := !i + 32;
    b := !b lsr 32
  end;
  if !b land 0xFFFF = 0 then begin
    i := !i + 16;
    b := !b lsr 16
  end;
  if !b land 0xFF = 0 then begin
    i := !i + 8;
    b := !b lsr 8
  end;
  if !b land 0xF = 0 then begin
    i := !i + 4;
    b := !b lsr 4
  end;
  if !b land 0x3 = 0 then begin
    i := !i + 2;
    b := !b lsr 2
  end;
  if !b land 0x1 = 0 then incr i;
  !i

let iter f t =
  (* ascending: peel the lowest set bit of each non-zero word in turn.
     The word is read once, so members added or removed behind the
     cursor during iteration are not observed — all callers are
     read-only on the iterated set. *)
  let nw = Array.length t.words in
  for wi = 0 to nw - 1 do
    let w = ref t.words.(wi) in
    if !w <> 0 then begin
      let base = wi * bits in
      while !w <> 0 do
        let b = !w land (- !w) in
        f (base + bit_index b);
        w := !w lxor b
      done
    end
  done

let fold f t init =
  let acc = ref init in
  iter (fun i -> acc := f i !acc) t;
  !acc

let elements t = List.rev (fold (fun i acc -> i :: acc) t [])

let of_list n l =
  let t = create n in
  List.iter (add t) l;
  t

let full n =
  let t = create n in
  let nw = Array.length t.words in
  if nw > 0 then begin
    Array.fill t.words 0 nw (-1);
    (* keep bits at and above [n] clear — the tail-zero invariant the
       word-level comparisons below rely on *)
    let r = n mod bits in
    if r <> 0 then t.words.(nw - 1) <- -1 lsr (bits - r)
  end;
  t

let binop op dst src =
  if dst.n <> src.n then invalid_arg "Bitset: universe mismatch";
  for i = 0 to Array.length dst.words - 1 do
    dst.words.(i) <- op dst.words.(i) src.words.(i)
  done

let union_into dst src = binop ( lor ) dst src
let inter_into dst src = binop ( land ) dst src
let diff_into dst src = binop (fun a b -> a land lnot b) dst src

let equal a b =
  a.n = b.n
  &&
  let ok = ref true in
  for i = 0 to Array.length a.words - 1 do
    if a.words.(i) <> b.words.(i) then ok := false
  done;
  !ok

let subset a b =
  if a.n <> b.n then invalid_arg "Bitset: universe mismatch";
  let ok = ref true in
  for i = 0 to Array.length a.words - 1 do
    if a.words.(i) land lnot b.words.(i) <> 0 then ok := false
  done;
  !ok
