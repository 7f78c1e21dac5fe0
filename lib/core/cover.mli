(** The abstract covering framework of §2.1, with both of the paper's
    symmetry-breaking mechanisms.

    All three k-ECSS algorithms are instances of one scheme: maintain the
    set of still-uncovered elements (cuts), repeatedly agree on the
    candidates of maximum rounded cost-effectiveness, break symmetry
    randomly, and add the survivors. §3 breaks symmetry by {e voting}
    (guaranteed O(log N) ratio); §4–5 by {e probability guessing}
    (expected O(log N) ratio). {!solve} is that loop: {!Tap} and {!Augk}
    are a problem, a strategy and a charge callback on it, and {!Mds}
    instantiates it for minimum dominating set as in Jia et al. [17].
    3-ECSS never enumerates its elements (the cut pairs live only in the
    cycle-space labels), so it runs its own loop on the shared
    {!type-schedule}. The loop computes locally; each distributed
    instantiation charges its communication through [?charge]. *)

open Kecss_graph
open Kecss_obs

type problem = {
  elements : int;  (** elements are [0 .. elements-1] *)
  candidates : int;  (** candidates are [0 .. candidates-1] *)
  weight : int -> int;  (** non-negative candidate weights *)
  covered_by : int -> (int -> unit) -> unit;
      (** [covered_by c f] calls [f] on each element [c] covers, the same
          ones on every call (twice per candidate at start, once per
          commit). *)
}

type strategy =
  | Voting of { divisor : int }
      (** §3: elements vote for their minimum-rank candidate; a candidate
          survives with ≥ |Ce|/divisor votes. The paper's divisor is 8.
          Past the iteration bound each iteration adds one candidate
          greedily. *)
  | Guessing of { m_phase : int }
      (** §4: candidates activate with probability p, doubling every
          [m_phase·⌈log₂(size+1)⌉] iterations per level (see
          {!type-schedule}). Past the iteration bound p is pinned to 1. *)

type iteration = {
  index : int;
  level : Cost.level;  (** the maximum ρ̃ this iteration *)
  candidates : int;
      (** candidates at that level (voting) or activated (guessing) *)
  added : int;
  uncovered_left : int;  (** after the iteration *)
}

type result = {
  chosen : Bitset.t;  (** over candidate indices *)
  iterations : int;
  weight : int;
  cost_sum : float;
      (** the §3.3 charging sum; for {!Voting} the Lemma 3.5 invariant
          [weight ≤ divisor · cost_sum] holds whenever no fallback greedy
          step fired. *)
  forced : int;  (** iterations past the bound (0 w.h.p.) *)
  phases : int;  (** (level, p) phases traversed; 0 for {!Voting} *)
  log : iteration list;  (** one entry per iteration, in order *)
}

val log2_ceil : int -> int
(** [⌈log₂ n⌉] ([0] for [n ≤ 1]). *)

type state
(** A running {!solve}'s coverage state, as its callbacks see it. *)

val covered : state -> int -> bool
(** Is the element covered? *)

val chosen : state -> Bitset.t
(** The candidates committed so far (read-only). *)

type stage =
  | Start  (** after the warm start, before the first iteration *)
  | Agreed of Cost.level
      (** an iteration's maximum level is known, before selection *)
  | Committed of { active : Bitset.t; added : int list }
      (** after an iteration's commits: the [added] candidates in
          descending id order, and the [active] ones — activated
          (guessing) or voted in (voting) *)

val solve :
  ?trace:Trace.t ->
  ?algo:string ->
  ?size:int ->
  ?max_iterations:int ->
  ?initial:Bitset.t ->
  ?filter:(state -> Bitset.t -> int -> bool) ->
  ?charge:(state -> stage -> unit) ->
  Rng.t ->
  problem ->
  strategy ->
  result
(** Covers every element; raises [Invalid_argument], before any
    callback, if some element has no covering candidate. Rank draws
    (voting) and activation draws (guessing) go in ascending candidate
    order.
    - [?initial] warm-starts the engine: the given candidates are
      committed before iteration 0, so a caller re-covering after a small
      change pays only for the uncovered remainder; they count toward
      [weight] but not [iterations] or [cost_sum]. Raises
      [Invalid_argument] if one is out of range.
    - [?size] (default: [max 2 (max elements candidates)]) is the n of
      the phase length [m_phase·⌈log₂(n+1)⌉] and of the default
      [?max_iterations], 40·⌈log₂(n+1)⌉³ + 300.
    - [?filter st active] picks the active candidates that join
      (guessing, when any activated); all by default.
    - [?charge st stage] is called at every {!stage}.
    - [?trace] receives the run's {!Kecss_obs.Events} under the name
      [?algo] (default ["cover"]). *)

val greedy : ?initial:Bitset.t -> problem -> Bitset.t
(** The classical sequential greedy: each step commits the exact
    maximiser of |uncovered elements covered| / weight, a zero weight
    counting as infinite and ties going to the smaller candidate id. It is
    the H_N-approximation yardstick ([Kecss_baselines.Greedy] runs on it)
    and, being deterministic, the serve repair engine. Raises
    [Invalid_argument] as {!solve} does. [?initial] warm-starts exactly as
    in {!solve}; the result includes the warm-started candidates. *)

val is_cover : problem -> Bitset.t -> bool

(** {1 The §4 probability schedule}, shared by {!Guessing} and 3-ECSS *)

type schedule

val schedule :
  trace:Trace.t -> algo:string -> candidates:int -> phase_len:int -> schedule
(** p = 2^-⌈log₂(candidates+1)⌉ at each new level, doubling every
    [max 1 phase_len] iterations at that level until it reaches 1; each
    step is a ["probability doubling"] event on [trace]. *)

val enter : schedule -> Cost.level -> unit
(** Starts an iteration at a level; a new level resets p. *)

val activate : schedule -> Rng.t -> bool
(** [true] with probability p (no draw once p = 1). *)

val certain : schedule -> bool
(** p = 1. *)

val advance : schedule -> unit
(** Ends an iteration: p doubles when the phase is over. *)

val phases : schedule -> int
