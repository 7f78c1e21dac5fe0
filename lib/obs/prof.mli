(** Opt-in wall-clock and GC profiling, strictly separate from the
    logical-round clock.

    {!Trace} timestamps are simulated CONGEST rounds and must stay
    deterministic; this module is the other axis — where the OCaml
    implementation actually spends the hardware. A profiler aggregates
    named spans: call count, total/max wall time, [Gc.quick_stat] deltas
    (minor/promoted/major words, minor/major collections) and a
    fixed-bucket latency histogram with p50/p90/p99 accessors. Nothing
    here feeds back into algorithm state, so results are identical with
    profiling on or off — but the numbers themselves are wall-clock and
    {e not} reproducible across runs, which is why they are reported,
    never compared byte-for-byte.

    A profiler is either {!noop} (every operation is a tag test) or
    recording, in which case it is safe to use from several domains at
    once: aggregation is mutex-protected, and span measurement itself
    touches only the calling domain's stack. *)

(** Fixed-bucket latency histograms (geometric buckets, ~19% wide,
    spanning 1µs to ~16s) — the groundwork for [kecss serve] latency
    reporting. Not thread-safe on its own; {!Prof} serializes access. *)
module Hist : sig
  type t

  val create : unit -> t

  val add : t -> float -> unit
  (** [add h ns] records one observation, in nanoseconds. *)

  val count : t -> int
  val total_ns : t -> float
  val min_ns : t -> float (** 0 when empty *)

  val max_ns : t -> float (** 0 when empty *)

  val percentile : t -> float -> float
  (** [percentile h q] for [q] in [0, 1]: the bucket-interpolated latency
    below which a [q] fraction of observations fall, clamped to the
    observed min/max. 0 when empty. *)

  val p50 : t -> float
  val p90 : t -> float
  val p99 : t -> float

  val to_json : t -> Json.t
  (** Summary object (count, total/min/max, p50/p90/p99 in ns);
      percentiles are [null] when the histogram is empty. *)
end

type gc_delta = {
  minor_words : float;
  promoted_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
}

type stat = {
  name : string;
  calls : int;
  total_ns : float;
  max_ns : float;
  gc : gc_delta;
  hist : Hist.t;
}

type t

val noop : t
val create : unit -> t
val enabled : t -> bool

val now_ns : unit -> float
(** Wall clock in nanoseconds (arbitrary epoch). *)

val span : t -> string -> (unit -> 'a) -> 'a
(** [span t name f] measures [f]'s wall time and GC deltas and folds them
    into the aggregate for [name], exception-safe. [f ()] with no
    measurement overhead at all on {!noop}. *)

val time : t -> string -> (unit -> unit) -> unit
(** [time t name f] is {!span} reading only the clock and the minor
    allocation pointer, not [Gc.quick_stat]: a fraction of {!span}'s
    cost, for spans entered thousands of times per solve, such as the
    engine's passes. Its aggregate counts calls, wall time and minor
    words; its promoted and major words and its collection counts stay
    0. *)

val allocated_words : unit -> float
(** Words allocated by the calling domain so far
    ([minor_words + major_words - promoted_words] of [Gc.quick_stat]).
    The runtime settles the major-heap counters lazily, at collection
    boundaries — call [Gc.full_major ()] before each reading to make
    deltas reproducible at fixed seed and [jobs = 1], which is what lets
    bench history compare allocation like a metric. *)

val stats : t -> stat list
(** Aggregates of every span name seen, sorted by name. Empty on {!noop}. *)

val to_json : t -> Json.t
(** The {!stats} as a JSON list (histograms as p50/p90/p99), for the
    [--profile] artifact. *)
