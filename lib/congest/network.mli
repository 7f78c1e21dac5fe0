(** The synchronous CONGEST execution engine.

    A {e program} gives each vertex local state and a step function.  In
    every round the engine delivers the messages sent in the previous round,
    calls the step of each vertex that is active or has mail exactly once,
    and collects its sends.  A vertex
    may send one message per incident edge per round, of at most
    {!val-cap_words} machine words — the model's O(log n)-bit budget (an
    identifier, a weight and a couple of flags all fit in O(log n) bits for
    polynomial weights, so a handful of words is one CONGEST message).

    Execution stops at {e quiescence}: no messages in flight and every
    vertex's step returned [`Idle].  The returned round count matches the
    standard synchronous accounting (a vertex receives at the end of round
    [r] the messages sent during round [r]): an engine pass counts as a
    round iff something was sent in it or some vertex is still waiting.

    A run is observed through one {!Kecss_obs.Probe} — trace, metrics,
    causal and flight recorders behind a single value — and perturbed
    only through the separate fault {!hook}. *)

open Kecss_graph
module Probe = Kecss_obs.Probe

exception Message_too_large of { vertex : int; words : int }
exception Duplicate_send of { vertex : int; edge : int }

exception
  Did_not_quiesce of { rounds : int; active : int; in_flight : int }
(** Raised after [max_rounds] engine passes without quiescence, with the
    stuck state attached: how many vertices still returned [`Active] and
    how many messages were in flight — enough to tell a livelocked wave
    from a vertex that never went idle. *)

val cap_words : int
(** Maximum message size in words (an int payload cell = one word). *)

val default_par_threshold : int
(** Below this many eligible vertices a pass's step phase runs inline
    instead of sharding across the pool (batch submission costs a few µs
    and the engine may run tens of thousands of passes).  The default,
    512, comes from the measured sweep recorded in EXPERIMENTS.md
    ("Scaling"). *)

val par_threshold : unit -> int
(** The effective threshold: {!set_par_threshold} if called, else the
    [KECSS_PAR_THRESHOLD] environment variable (ignored unless a
    positive integer), else {!default_par_threshold}. *)

val set_par_threshold : int -> unit
(** Process-wide override (the CLI's [--par-threshold]); takes
    precedence over the environment.  Raises [Invalid_argument] if the
    value is [< 1].  Changing the threshold moves work between the
    engine domain and the pool but never changes results — the
    jobs-equality contract below covers every threshold. *)

type send = { edge : int; payload : int array }
(** A message to put on edge [edge] this round. *)

type 'a inbox = (int * 'a) list
(** Received messages as [(edge_id, payload)] pairs, in arbitrary order. *)

type fate = Deliver | Drop | Replicate of int | Postpone of int
(** What the network does with one sent message: deliver it normally, lose
    it, deliver [Replicate n] copies ([n >= 1]; the inbox sees [n]
    entries), or deliver it [Postpone d] rounds late ([d <= 0] delivers
    normally). *)

type hook = {
  round_begin : round:int -> unit;
      (** Called once at the top of every engine pass, before any vertex
          steps — lets an interposer keep a global round clock across the
          many engine runs of one solve. *)
  alive : round:int -> int -> bool;
      (** [alive ~round v]: may vertex [v] still participate? A dead
          vertex is crash-stopped: its step is skipped, it sends nothing,
          counts as idle, and its delivered messages are lost. Called for
          every vertex the pass would step, in ascending order. *)
  fate : round:int -> src:int -> edge:int -> fate;
      (** Rules on each message the instant it is sent. The send has
          already passed the size and duplicate checks and is counted in
          the message total whatever the fate. *)
}
(** An interposition point between senders and the network fabric, used by
    the fault-injection layer ([Kecss_faults.Net]) to model adversarial
    message loss, delay, duplication, crash-stops and edge failures
    without forking the engine. Absent (the default), the engine behaves
    exactly as specified above and pays one [match] per vertex and per
    message. *)

type 's program = {
  init : int -> 's;
  (** [init v] builds vertex [v]'s initial state. It may inspect the graph
      locally (own adjacency) — vertices know their incident edges. *)
  step :
    round:int -> int -> 's -> int array inbox -> send list * [ `Active | `Idle ];
  (** [step ~round v state inbox] returns messages to send and whether
      the vertex still wants rounds; state is updated by mutation. Every
      vertex steps in round 0 (inboxes empty); after that a vertex steps
      only in rounds where it is active (its last step returned
      [`Active]) or has mail. An idle vertex with an empty inbox is not
      stepped, so a program must not rely on idle steps to send or to
      change state. *)
}

val run :
  ?max_rounds:int ->
  ?pool:Kecss_par.Pool.t ->
  Graph.t ->
  's program ->
  's array * int
(** [run g p] is [run_counted g p] without the message count. *)

val run_counted :
  ?probe:Probe.t ->
  ?hook:hook ->
  ?max_rounds:int ->
  ?pool:Kecss_par.Pool.t ->
  Graph.t ->
  's program ->
  's array * int * int
(** [run_counted g p] executes [p] to quiescence and returns the final
    states, the number of rounds used, and the total number of messages
    sent.

    [?probe] (default {!Kecss_obs.Probe.noop}) observes the run. With a
    recording probe the engine records, through {!Kecss_obs.Probe}'s
    engine hooks: one metrics sample per counted round (messages sent,
    vertices active), cumulative per-edge congestion and the run's
    quiescence round; a causal id and parent set for every sent message
    (the deliveries that enabled it) and the phase of every counted
    round; and sends, deliveries, active/idle flips and crash-stops in
    the flight recorder's per-vertex rings. Every hook runs from the
    sequential plan/delivery passes on the engine domain, so what is
    recorded is byte-identical at every pool size. With the noop probe
    each event site costs one boolean test.

    The engine keeps a worklist — the vertices that are active or hold
    a delivered message, in ascending order — and every per-pass phase
    walks the worklist instead of all [n] vertices, so an engine pass
    costs O(active + deliveries), not O(n).

    When [?hook] is given, every vertex step is gated by [hook.alive] and
    every sent message by [hook.fate]; postponed messages stay in flight
    (keeping the engine from quiescing) until their delay elapses. The
    message total always counts sends, not deliveries, so it is
    unaffected by drops and duplications.
    On large rounds ({!par_threshold} or more vertices stepping) the
    step pass shards across [?pool] (default
    {!Kecss_par.Pool.default}): each domain owns a static contiguous
    slice of the pass's worklist and collects the sends of its slice in
    its own shard, and the sequential delivery pass then drains the
    shards in slice order — a deterministic ascending-sender merge.
    Only the step calls themselves run off the engine domain — each
    touches exclusively its vertex's state and status cell plus its
    slice's shard — while hook calls, delivery, metrics and the active
    count stay sequential in vertex order, so rounds, message totals,
    telemetry and final states are byte-identical at every pool size.
    @raise Message_too_large on an oversized payload
    @raise Duplicate_send if a vertex sends twice on one edge in a round
    @raise Did_not_quiesce after [max_rounds] (default [16 * n + 10_000]). *)
