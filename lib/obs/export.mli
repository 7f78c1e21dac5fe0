(** Exporters for traces and metrics.

    Three formats:
    - {!table}: human-readable aligned tables on a [Format] formatter
      (in the style of [Rounds.pp]);
    - {!jsonl}: one JSON object per event, newline-delimited — easy to
      stream and grep;
    - {!chrome}: the Chrome [trace_event] JSON format — the output file
      opens directly in [chrome://tracing] or {{:https://ui.perfetto.dev}
      Perfetto}, with spans on the timeline, instant events as markers and
      counter tracks for messages/round and active vertices. The timeline
      unit is one simulated CONGEST round per microsecond. *)

type cell = S of string | I of int | F of float

val table :
  Format.formatter ->
  title:string ->
  columns:string list ->
  cell list list ->
  unit
(** Renders an aligned table with a title line, a header and a rule. *)

val jsonl : Trace.t -> string
(** All events, one JSON object per line (trailing newline included;
    empty string for an event-less trace). *)

val chrome : Trace.t -> string
(** A complete Chrome trace_event JSON document. *)

val metrics_table : Format.formatter -> Metrics.t -> unit
(** The metrics summary as a two-column table. *)

(** {1 Profiling reports}

    Renderers for the [--profile] outputs: per-span wall-clock/GC
    aggregates ({!Prof}) and per-domain pool utilization. Pool stats are
    passed as [(busy_ns, tasks)] pairs in domain order (index 0 is the
    submitting domain) so this library does not depend on the pool. *)

val prof_table : Format.formatter -> Prof.t -> unit
(** Per-span profile as an aligned table (times in ms, GC in kwords).
    Prints nothing when no spans were recorded. *)

val pool_table :
  Format.formatter ->
  jobs:int ->
  lifetime_ns:float ->
  (float * int) array ->
  unit
(** Per-domain busy/idle wall-clock and task counts, with busy share of
    the pool's lifetime. *)

val pool_to_json :
  jobs:int -> lifetime_ns:float -> (float * int) array -> Json.t
(** The same utilization data as a JSON object (the [profile.pool]
    section of [bench-metrics.json]). *)

val latency_table :
  Format.formatter -> title:string -> (string * Prof.Hist.t) list -> unit
(** Per-request-kind latency summary (count, total, p50/p99/max in ms)
    for the [kecss serve] session report; empty histograms are skipped,
    and nothing prints when no kind was hit. *)

(** {1 Causal reports}

    Renderers for {!Causal.analyze} output. The ledger's per-category
    breakdown is passed as plain assoc lists so this library does not
    depend on the round ledger; phase names and ledger categories share
    one naming scheme, so the joined table's rounds column sums to the
    ledger total while synthetic charges (categories with no engine run
    behind them) show up with zero causal data. *)

val causal_phase_rows :
  ?phase:string ->
  rounds_by_category:(string * int) list ->
  messages_by_category:(string * int) list ->
  Causal.report ->
  (string * int * int * int * int) list
(** The joined per-phase table rows
    [(phase, ledger rounds, ledger messages, engine rounds, crit hops)],
    sorted by phase name — the union of ledger categories and causal
    phases, so the rounds column sums to the ledger total. [?phase] keeps
    only the named phase and its sub-phases. *)

val causal_tables :
  Format.formatter ->
  ?top:int ->
  ?phase:string ->
  total_rounds:int ->
  total_messages:int ->
  rounds_by_category:(string * int) list ->
  messages_by_category:(string * int) list ->
  Causal.report ->
  unit
(** Summary, per-phase attribution, longest chains and tightest-sender
    tables. [?top] (default 10) bounds the chain and slack tables;
    [?phase] keeps only the named phase and its sub-phases. *)

val causal_to_json :
  ?top:int ->
  ?phase:string ->
  ?extra:(string * Json.t) list ->
  total_rounds:int ->
  total_messages:int ->
  rounds_by_category:(string * int) list ->
  messages_by_category:(string * int) list ->
  Causal.report ->
  Json.t
(** The [kecss-causal/1] document. [?extra] fields (run identification:
    algo, graph, seed, jobs) are spliced in right after the schema tag;
    [?top]/[?phase] filter exactly like {!causal_tables}, so the table
    and the JSON always agree. *)
