type level = int

let infinite = max_int
let useless = min_int

(* smallest integer z with 2^z * weight > covered, computed with integer
   arithmetic only (weights are polynomial, so no overflow concern) *)
let level ~covered ~weight =
  if covered < 0 || weight < 0 then invalid_arg "Cost.level: negative input";
  if covered = 0 then useless
  else if weight = 0 then infinite
  else if weight <= covered then
    let rec go z acc = if acc > covered then z else go (z + 1) (2 * acc) in
    go 0 weight
  else begin
    (* negative exponent: the largest t with weight > covered * 2^t *)
    let rec go t pow = if weight > covered * pow then go (t + 1) (2 * pow) else t in
    -(go 0 1 - 1)
  end

let is_candidate_level l = l <> useless
let max_level = List.fold_left max useless

(* Broadcastable encoding: finite exponents are biased into [0, 2·bias],
   the two distinguished values sit just above.  With polynomial weights
   and at most 2^62 coverable cuts, |exponent| < 64 always holds. *)
let payload_bias = 64
let payload_infinite = (2 * payload_bias) + 1
let payload_useless = (2 * payload_bias) + 2

(* the whole biased range must fit one CONGEST payload word (O(log n)
   bits); it comfortably does — a single static check documents it *)
let () = assert (payload_useless < 1 lsl 16)

let to_payload l =
  if l = infinite then payload_infinite
  else if l = useless then payload_useless
  else if l < -payload_bias || l > payload_bias then
    invalid_arg "Cost.to_payload: level exceeds the biased range"
  else l + payload_bias

let of_payload p =
  if p = payload_infinite then infinite
  else if p = payload_useless then useless
  else if p < 0 || p > 2 * payload_bias then
    invalid_arg "Cost.of_payload: not an encoded level"
  else p - payload_bias
