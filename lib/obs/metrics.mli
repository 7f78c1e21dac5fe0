(** Round-level CONGEST engine metrics.

    A collector rides in a run's [Probe], which the round ledger hands to
    [Network.run_counted]. It records, for every {e counted} engine
    round: the number of messages sent, and the number of vertices still
    active. Across the whole execution it additionally tracks cumulative
    per-edge message counts (congestion) and per-run quiescence rounds.

    The series index is the global counted-round index across every
    program run recorded into the collector, so the messages series of a
    full solve sums to the solve's total message count.

    Like {!Trace}, a collector is either {!noop} (every hook is one tag
    test) or recording. If a recording collector carries a trace, each
    round also emits [messages/round] and [active vertices] counter
    samples, timestamped so they line up with the phase spans the ledger
    opens. *)

type t

val noop : t
val create : ?trace:Trace.t -> unit -> t
val enabled : t -> bool

(** {1 Recording hooks (called by the engine through [Probe])} *)

val run_begin : t -> unit
val on_send : t -> edge:int -> unit
val on_round : t -> messages:int -> active:int -> unit
val run_end : t -> quiesced:bool -> rounds:int -> unit

(** {1 Fork and join}

    The collector side of [Probe.fork]/[Probe.join]: a parallel section
    records into private children, and joining them in a fixed order
    yields the collector a sequential run in that order would have
    produced — series are concatenated, totals and per-edge loads
    summed, quiescence lists appended. Round samples need no replay:
    a child emits them into the child trace, which joins with the trace. *)

val fork : t -> trace:Trace.t -> t
(** A fresh child, {!noop} for {!noop}. It samples into [trace] iff [t]
    samples into a recording trace. *)

val join : t -> t -> unit
(** [join parent child] folds [child] into [parent]. No-op unless both
    record. *)

(** {1 Accessors} *)

val rounds_observed : t -> int
(** Total counted rounds recorded (= length of both series). *)

val messages_series : t -> int array
(** Messages sent in each counted round, in execution order. *)

val active_series : t -> int array
(** Vertices returning [`Active] in each counted round. *)

val total_messages : t -> int
val peak_round_messages : t -> int
val peak_active : t -> int

val hottest_edge : t -> (int * int) option
(** [(edge id, cumulative messages)] of the most loaded edge, if any
    message was ever sent. *)

val runs : t -> int
(** Number of engine executions recorded. *)

val quiescence_rounds : t -> int list
(** Counted rounds of each run that reached quiescence, in order. *)

type summary = {
  rounds : int;
  messages : int;
  peak_round_messages : int;
  mean_round_messages : float;
  peak_active : int;
  mean_active : float;
  hottest_edge : int;          (* -1 when no message was sent *)
  hottest_edge_messages : int;
  runs : int;
}

val summary : t -> summary

val summary_to_json : summary -> Json.t

val to_json : t -> Json.t
(** Full dump: summary plus both per-round series and quiescence rounds. *)
