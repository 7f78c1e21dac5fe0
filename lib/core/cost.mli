(** Rounded cost-effectiveness (§2.1).

    The cost-effectiveness of a candidate edge is ρ(e) = |Ce| / w(e): the
    number of still-uncovered cuts it covers per unit weight, with
    ρ(e) = ∞ when w(e) = 0.  Algorithms compare only the {e rounded} value
    ρ̃(e) — the smallest power of two strictly greater than ρ(e) — so a
    level is fully described by its exponent.  This module works with
    exponents exactly (no floating point): levels are totally ordered
    integers, with two distinguished values for ∞ and for "covers
    nothing". *)

type level = int
(** The exponent z such that ρ̃ = 2^z; ordered by the usual int order
    (with {!useless} = [min_int] at the bottom and {!infinite} = [max_int]
    at the top). Kept abstract-by-convention: construct with {!level}. *)

val infinite : level
(** ρ̃ of a zero-weight edge that still covers something. *)

val useless : level
(** The bottom level: |Ce| = 0. Never a candidate. *)

val level : covered:int -> weight:int -> level
(** [level ~covered ~weight] is the rounded cost-effectiveness exponent of
    an edge covering [covered] uncovered cuts at weight [weight]: the
    smallest z with 2^z > covered/weight. [covered = 0] gives {!useless};
    [weight = 0] (with [covered > 0]) gives {!infinite}. *)

val is_candidate_level : level -> bool
(** Neither {!useless} (nothing to gain) — ∞ and finite levels qualify. *)

val max_level : level list -> level
(** Maximum of a list, {!useless} for the empty list. *)

val payload_bias : int
(** Bias of the broadcast encoding: finite exponents live in
    [[-payload_bias, payload_bias]]. *)

val to_payload : level -> int
(** [to_payload l] encodes [l] as a small non-negative integer fit for a
    CONGEST message word: finite exponents are shifted by
    {!payload_bias} (so negative levels survive the trip), with the two
    distinguished levels mapped to sentinels just above the biased
    range.  @raise Invalid_argument if a finite level falls outside
    [[-payload_bias, payload_bias]]. *)

val of_payload : int -> level
(** Inverse of {!to_payload}.
    @raise Invalid_argument on a word that is not an encoded level. *)
