(* Order statistics over run samples. [quartiles] reproduces Python's
   [statistics.quantiles(xs, n=4)] (the default "exclusive" method)
   exactly, so spreads computed here match the ones an outside check
   computes from the same values. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld = 0 then (Float.nan, Float.nan, Float.nan)
  else if ld = 1 then (a.(0), a.(0), a.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 1, q 2, q 3)

(* nearest-rank percentile: an observed sample, never an interpolation *)
let percentile xs q =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let sum xs = List.fold_left ( +. ) 0.0 xs
let mean f xs = sum (List.map f xs) /. float_of_int (List.length xs)

let ratio a b = if b = 0.0 then 0.0 else a /. b
