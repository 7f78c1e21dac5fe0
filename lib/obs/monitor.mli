(** Online invariant monitor for the solver event stream.

    The monitor subscribes to a recording {!Trace} ({!attach}) and checks,
    as events arrive, that the run obeys the paper's guarantees:

    - {b coverage-monotone}: the [remaining] count of
      [Events.iteration_end] never increases within one augmentation run
      (covered tree edges / cuts are never un-covered), and [added] is
      never negative;
    - {b vote-threshold}: every accepted TAP candidate reported by
      [Events.vote_audit] received at least ⌈|Ce|/divisor⌉ votes
      (§3 line 5);
    - {b rho-rounding}: every committed edge's rounded cost-effectiveness
      reported by [Events.rho_audit] is the exponent of the smallest
      power of two strictly greater than |Ce|/w (§2.1) — re-derived here
      independently of [Cost.level];
    - {b probability-schedule}: Aug_k / 3-ECSS activation probabilities
      follow the doubling schedule (§4): the exponent only ever steps
      down by exactly one, stays non-negative, or resets upward at a
      level change, and phases count up by one;
    - {b iteration-bound}: iteration indices stay within the explicit
      finite-size bounds behind the O(log² n) (TAP) and O(log³ n)
      (Aug_k, 3-ECSS) iteration counts, using the instance size from
      [Events.instance_size]: 64·⌈log₂(n+1)⌉² + 200 + n for TAP and
      20·⌈log₂(n+1)⌉³ + 500 + n for the schedule-driven loops (the
      solver defaults plus the unconditional-termination slack).

    Each failed check is recorded as a {!violation} carrying the
    offending event. Monitoring is passive: it never raises, never
    consumes randomness, and unknown or malformed events are ignored, so
    a monitored run computes exactly what an unmonitored one does.

    {b Fault attribution.} The fault-injection layer ([Kecss_faults])
    marks every injected fault with an [Events.fault_injected] event. The
    monitor counts these separately ({!faults_seen},
    {!faults_by_kind}); once any fault has been injected, subsequent
    failed checks are recorded as {!anomalies} attributed to the
    injection instead of {!violations} — a faulty network voids the
    solver guarantees, so flagging them as algorithm bugs would be a
    misattribution. On fault-free streams nothing changes and {!ok}
    retains its strict meaning. *)

type violation = {
  invariant : string;  (** one of the check names above *)
  detail : string;     (** human-readable description of the failure *)
  event : Trace.event; (** the offending event *)
}

type t

val create : unit -> t

val attach : t -> Trace.t -> unit
(** Subscribe to every event the trace records from now on
    ({!Trace.subscribe}). The trace must be a recording trace; attaching
    to {!Trace.noop} observes nothing. *)

val check_all : t -> Trace.event list -> unit
(** Feed each event in order, as {!attach} would — audit a completed
    trace. *)

val violations : t -> violation list
(** All recorded violations, in detection order. *)

val anomalies : t -> violation list
(** Failed checks observed {e after} at least one injected fault, in
    detection order — attributed to the injection, not the algorithms,
    and never counted by {!ok}. *)

val ok : t -> bool
(** No violations so far (fault-attributed {!anomalies} do not count). *)

val events_seen : t -> int
(** Total events observed (monitored-coverage sanity for tests). *)

val faults_seen : t -> int
(** Total [fault injected] events recognized. *)

val faults_by_kind : t -> (string * int) list
(** Injected-fault tally by kind, sorted by kind name. *)

val pp_violation : Format.formatter -> violation -> unit

val pp_report : Format.formatter -> t -> unit
(** One line per violation plus a summary tail; prints a clean
    "all invariants hold" line when {!ok}. *)

val violations_to_json : violation list -> Json.t
(** A list of violations as JSON objects with [invariant], [detail],
    [event] and [ts] fields: the one encoding, which audit records
    embed. *)

val to_json : t -> Json.t
(** {!violations_to_json} of {!violations}. *)
