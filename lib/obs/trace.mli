(** Structured telemetry traces: nestable spans, monotonic counters and
    typed instant events on a logical time line.

    Time is {e simulated CONGEST rounds}, not wall-clock: the round ledger
    advances the trace clock as primitives charge rounds, so a span's
    duration is exactly the number of rounds its phase consumed and the
    exported timeline (see {!Export}) shows where rounds go.

    A trace is either {!noop} — every operation is a single tag test and
    allocates nothing, so instrumented hot paths cost nothing when tracing
    is off — or recording, in which case events accumulate in memory until
    exported. Recording is purely passive: it never consumes randomness or
    influences control flow, so algorithm results are identical with
    tracing on or off.

    A trace is single-domain state. A parallel section gives each task a
    fresh child trace and appends the children in a fixed order with
    {!join}, which is how [Probe.fork]/[Probe.join] keep exported streams
    independent of [--jobs]. *)

type value = Int of int | Float of float | Str of string | Bool of bool

type kind =
  | Span_begin
  | Span_end
  | Instant
  | Counter

type event = {
  kind : kind;
  name : string;
  ts : float; (* logical time in simulated rounds *)
  args : (string * value) list;
}

type t

val noop : t
(** The no-op trace: always off, shared, records nothing. *)

val create : unit -> t
(** A fresh recording trace with clock 0. *)

val subscribe : t -> (event -> unit) -> unit
(** [subscribe t f] registers [f] to be called on every event at the
    moment it is recorded — the hook online consumers (e.g.
    {!Monitor}) attach through. Subscribers run synchronously in
    subscription order and must not emit into [t] themselves: a
    subscriber that does raises [Invalid_argument] instead of silently
    corrupting the event stream. Events appended by {!join} are
    dispatched at the join. No-op on {!noop}. *)

val enabled : t -> bool

val now : t -> float
(** Current logical time (0 on {!noop}). *)

val advance : t -> float -> unit
(** Advance the logical clock, e.g. by a number of charged rounds. *)

val begin_span : t -> ?args:(string * value) list -> string -> unit
val end_span : t -> unit
(** Imperative span brackets for loop-shaped phases. [end_span] closes the
    innermost open span; unbalanced calls are ignored on an empty stack. *)

val span : t -> ?args:(string * value) list -> string -> (unit -> 'a) -> 'a
(** [span t name f] runs [f] bracketed by begin/end events, exception-safe. *)

val instant : t -> ?args:(string * value) list -> string -> unit
(** A point event at the current time. *)

val count : t -> string -> int -> unit
(** [count t name n] adds [n] to the monotonic counter [name] and records
    its new cumulative value at the current time. *)

val sample : t -> ?ts:float -> string -> float -> unit
(** [sample t name v] records the gauge value [v] for [name], at [?ts]
    (default: the current time). Used for per-round series whose
    timestamps are interior to a phase that is charged only at its end. *)

val counter_total : t -> string -> int
(** Current cumulative value of a {!count}ed counter (0 if never seen). *)

val depth : t -> int
(** Number of currently open spans. *)

val events : t -> event list
(** All recorded events, in emission order. *)

val event_count : t -> int

val join : t -> t -> unit
(** [join parent child] appends [child]'s events to [parent] as if they
    had been recorded there: timestamps are rebased onto [parent]'s
    clock, counter values fold into [parent]'s cumulative totals,
    [parent]'s subscribers fire for each appended event on the calling
    domain, and [parent]'s clock advances by [child]'s. Joining the
    children of a parallel section in a fixed order therefore yields
    exactly the stream of running them sequentially in that order,
    whatever the scheduling (see [Probe.fork]). [child] must not be used
    afterwards. No-op unless both traces record. *)
