(** Round-cost ledger.

    Every distributed primitive charges the exact number of synchronous
    rounds its execution used, tagged with a category, so experiments can
    report both total round counts and per-phase breakdowns (e.g. rounds
    spent building the MST vs. in TAP iterations).

    A ledger carries the run's {!Kecss_obs.Probe}. {!scoped} opens each
    phase on it ({!Kecss_obs.Probe.phase}): a trace span under the same
    name as the round category prefix (so the pretty-printed breakdown
    and the exported timeline use one naming scheme), a causal phase and
    a profiler span. Every {!charge} advances the trace's logical clock
    by the charged rounds, and the primitives hand the probe to every
    engine run they execute. With the noop probe all of this costs one
    tag test. *)

open Kecss_obs

type t

val create :
  ?trace:Trace.t ->
  ?metrics:Metrics.t ->
  ?prof:Prof.t ->
  ?causal:Causal.t ->
  ?flight:Flight.t ->
  ?hook:Network.hook ->
  unit ->
  t
(** A ledger on [Probe.create ?trace ?metrics ?prof ?causal ?flight ()]. *)

val of_probe : Probe.t -> hook:Network.hook option -> t
(** A ledger on an existing probe. *)

val probe : t -> Probe.t

val trace : t -> Trace.t
(** The probe's trace ([Trace.noop] unless one is recording). Algorithms
    use this to emit typed events without signature changes. *)

val metrics : t -> Metrics.t
(** The probe's engine-metrics collector (or [Metrics.noop]). *)

val hook : t -> Network.hook option
(** The attached engine interposition hook, if any. The primitives pass it
    to every {!Network.run_counted} they execute, so a fault plan wired
    into the ledger at creation reaches each engine run of a solve. It is
    not part of the probe: it changes what the network does. *)

val charge : t -> category:string -> int -> unit
(** [charge t ~category r] adds [r] rounds under [category] (prefixed by
    the current scope) and advances the trace clock by [r]. [r] must be
    non-negative. *)

val scoped : t -> string -> (unit -> 'a) -> 'a
(** [scoped t name f] runs [f] with [name/] prepended to every category
    charged inside, so reports show which algorithm phase consumed the
    primitive rounds (e.g. ["mst/wave_up"]). Runs [f] as the probe phase
    [name] ({!Kecss_obs.Probe.phase}). Nests. *)

val total : t -> int
(** Total rounds charged so far. *)

val charge_messages : t -> category:string -> int -> unit
(** [charge_messages t ~category m] records [m] messages sent (scoped like
    {!charge}). Message complexity is tracked alongside rounds: a CONGEST
    message is O(log n) bits, so this is the standard message measure. *)

val total_messages : t -> int

val by_category : t -> (string * int) list
(** Per-category round totals, sorted by category name. *)

val messages_by_category : t -> (string * int) list
(** Per-category message totals, sorted by category name. *)

val reset : t -> unit
(** Clears totals and categories. Does not touch the probe. *)

val to_json : t -> string
(** Machine-readable dump: totals plus both category breakdowns, as one
    JSON object. *)

val pp : Format.formatter -> t -> unit
(** Renders the total and the per-category breakdown. *)
