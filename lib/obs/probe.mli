(** One run's observers as one value.

    A probe holds the five observers that explain a run: the {!Trace},
    the engine {!Metrics}, the wall-clock {!Prof}iler, the {!Causal}
    message recorder and the stall {!Flight} recorder. The CLI builds one
    per command, the round ledger stores it, and the engine primitives
    hand it to every [Network.run_counted], so adding an observer changes
    this module instead of every signature on that path.

    A probe is either {!noop} — every operation is one tag test and
    allocates nothing, which is what the engine pays per event site when
    nothing observes the run — or recording, in which case each
    operation forwards to the observers it holds (any of which may itself
    be a noop).

    A parallel section records through {!fork} and {!join}: each task
    records into a private child, and joining the children in a fixed
    order yields exactly the telemetry of running the tasks sequentially
    in that order, whatever the pool size or scheduling. *)

type t

val noop : t

val create :
  ?trace:Trace.t ->
  ?metrics:Metrics.t ->
  ?prof:Prof.t ->
  ?causal:Causal.t ->
  ?flight:Flight.t ->
  unit ->
  t
(** Holds the given observers, each defaulting to its noop. The result
    is {!noop} when every observer is. *)

val enabled : t -> bool
val trace : t -> Trace.t
val metrics : t -> Metrics.t
val prof : t -> Prof.t
val causal : t -> Causal.t
val flight : t -> Flight.t

(** {1 Phases} *)

type scope =
  | Ledger of string list
      (** a round-ledger scope: its name and the enclosing scopes' names,
          innermost first *)
  | Run of string  (** one engine run, under the category it is charged to *)

val phase : t -> scope -> (unit -> 'a) -> 'a
(** [phase t scope f] runs [f] inside [scope], exception-safe. Both kinds
    open a causal phase under their innermost name, so causal round
    attribution uses the ledger's category names (e.g. ["mst/wave_up"]).
    A ledger scope also opens the trace span of that name and times [f]
    as the profiler span at its ["/"]-joined path (e.g.
    ["tap/iteration"]), kept entirely outside the logical round clock. *)

(** {1 Fork and join} *)

val fork : t -> t
(** A child that records privately: a fresh trace, metrics collector and
    causal recorder wherever [t] has a recording one, and [t]'s profiler,
    which is safe to share across domains. A child records no flight
    history. [fork noop] is [noop]. *)

val join : t -> t -> unit
(** [join parent child] appends [child]'s telemetry to [parent]
    ({!Trace.join}, {!Metrics.join}, {!Causal.join}): trace timestamps
    are rebased onto [parent]'s clock and counters fold in cumulatively,
    [parent]'s trace subscribers fire at the join on the calling domain,
    metrics series are concatenated and per-edge loads summed. *)

(** {1 Engine hooks}

    Called by [Kecss_congest.Network.run_counted] from its sequential
    passes only, so everything recorded is independent of the pool size.
    The engine tests {!enabled} once per run and calls a hook only when
    it holds. *)

val run_begin : t -> n:int -> unit
val round_begin : t -> unit

val causal_ids : t -> bool
(** Whether the engine must track message ids for {!group} and
    {!on_send}: true iff the causal recorder records. *)

val group : t -> parents:int list -> int
(** {!Causal.group}. *)

val on_send :
  t -> src:int -> dst:int -> edge:int -> word:int -> group:int -> int
(** Records one sent message with every observer and returns its causal
    id (-1 unless the causal recorder records). [word] is the payload's
    first word, or -1 for an empty payload. *)

val on_recv : t -> vertex:int -> edge:int -> word:int -> unit
val on_active : t -> vertex:int -> active:bool -> unit
val on_crash : t -> vertex:int -> unit
val on_round : t -> messages:int -> active:int -> unit
val run_end : t -> quiesced:bool -> rounds:int -> unit
