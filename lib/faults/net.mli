(** The faulty engine: compiles a {!Plan} into a {!Kecss_congest.Network}
    interposition hook and runs programs under it.

    The injector draws all randomness from one stream seeded by the plan,
    and consults it in the engine's deterministic iteration order, so a
    run is a pure function of [(program, graph, plan)]: same plan, same
    seed — same injected-fault sequence, same result. Every injection is
    recorded as a typed [fault injected] trace event (see
    [Kecss_obs.Events.fault_injected]) so monitors and audits can
    attribute downstream anomalies to the injection.

    Faults can starve a program of messages it is waiting for; instead of
    letting the engine's [Did_not_quiesce] escape as a failure of the
    {e program}, {!run_counted} converts it into the structured
    {!Stalled} outcome carrying the injection statistics. *)

open Kecss_graph
open Kecss_obs
open Kecss_congest

type stats = {
  dropped : int;     (** messages lost (random drops + dead edges) *)
  delayed : int;     (** messages postponed *)
  duplicated : int;  (** messages delivered twice *)
  crashed : int;     (** vertices crash-stopped *)
  cut : int;         (** edge-cut activations *)
  restored : int;    (** edge-restore activations (plan [ins] entries) *)
}

val no_faults : stats

val total : stats -> int
(** Total injections (crash/cut/restore count once at activation). *)

val pp_stats : Format.formatter -> stats -> unit

(** {1 Injectors} *)

type injector
(** Compiled plan state: the seeded random stream, the global engine-round
    clock (cumulative across engine runs), activation state of scheduled
    faults, and the running {!stats}. One injector can be shared by every
    engine run of a solve — wire {!hook} into [Rounds.create ?hook]. *)

val injector : ?trace:Trace.t -> Plan.t -> injector
(** Fresh injector for [plan]; injections emit [fault injected] events
    into [trace] (default {!Trace.noop}: stats only). *)

val hook : injector -> Network.hook

val stats : injector -> stats

val rounds_seen : injector -> int
(** Global engine passes observed so far (the clock crash/cut rounds are
    measured on). *)

(** {1 Running programs under faults} *)

type 's outcome =
  | Quiesced of {
      states : 's array;
      rounds : int;
      messages : int;
      faults : stats;
    }
  | Stalled of {
      rounds : int;      (** engine passes executed before giving up *)
      active : int;      (** vertices still wanting rounds *)
      in_flight : int;   (** undelivered (incl. postponed) messages *)
      faults : stats;
    }  (** Fault-induced non-quiescence: the structured replacement for a
          bare [Network.Did_not_quiesce]. *)

val run_counted :
  ?probe:Probe.t ->
  ?max_rounds:int ->
  plan:Plan.t ->
  Graph.t ->
  's Network.program ->
  's outcome
(** [run_counted ~plan g p] executes [p] under a fresh injector for
    [plan], observed by [?probe]; injections are recorded in the probe's
    trace. Engine contract violations by the {e program}
    ([Message_too_large], [Duplicate_send]) still raise — they are bugs,
    not faults. *)
