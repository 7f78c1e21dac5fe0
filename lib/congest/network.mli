(** The synchronous CONGEST execution engine.

    A {e program} gives each vertex local state and a step function.  In
    every round the engine delivers the messages sent in the previous round,
    calls the step of each vertex that is active or has mail exactly once
    (a vertex that waits for mail is stepped only when mail comes), and
    collects its sends.  A vertex
    may send one message per incident edge per round, of at most
    {!val-cap_words} machine words — the model's O(log n)-bit budget (an
    identifier, a weight and a couple of flags all fit in O(log n) bits for
    polynomial weights, so a handful of words is one CONGEST message).  It
    names a link it sends on by its {e port}, its own index into its
    adjacency row, and learns the edge a message arrived on from the
    message.

    Execution stops at {e quiescence}: no messages in flight and every
    vertex's last step returned [`Idle].  The returned round count matches the
    standard synchronous accounting (a vertex receives at the end of round
    [r] the messages sent during round [r]): an engine pass counts as a
    round iff something was sent in it or some vertex is still waiting.

    The engine has one scheduling mode: every pass steps its vertices one
    at a time, in ascending order, on the domain that called
    {!run_counted}, and then delivers their sends in the same order.

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
    stuck state attached: how many vertices' last step returned [`Active]
    or [`Wait] and how many messages were in flight — enough to tell a livelocked wave
    from a vertex that never went idle. *)

val cap_words : int
(** Maximum message size in words (an int payload cell = one word). *)

val par_threshold : unit -> int
(** [max_int]: no pass shards. Every pass steps inline on the calling
    domain; environment reports still record the value. *)

type send = { edge : int; payload : int array }
(** A message as a value: edge [edge] and its payload. Programs post
    sends to their {!outbox}; this record is how [Prim.exchange]'s
    callers describe theirs. *)

type fate = Deliver | Drop | Replicate of int | Postpone of int
(** What the network does with one sent message: deliver it normally, lose
    it, deliver [Replicate n] copies ([n >= 1]; the receiver's {!mail}
    holds [n] entries), or deliver it [Postpone d] rounds late ([d <= 0]
    delivers normally). *)

type hook = {
  round_begin : round:int -> unit;
      (** Called once at the top of every engine pass, before any vertex
          steps — lets an interposer keep a global round clock across the
          many engine runs of one solve. *)
  alive : round:int -> int -> bool;
      (** [alive ~round v]: may vertex [v] still participate? A dead
          vertex is crash-stopped: its step is skipped, it sends nothing,
          counts as idle, and its delivered messages are lost. Called for
          every vertex the pass would step, in ascending order. Under a
          hook a vertex that waits for mail is stepped in every pass, as
          if it had returned [`Active], so this sees it, and a crash
          stops it, in the pass it would without the wait. *)
  fate : round:int -> src:int -> edge:int -> fate;
      (** Rules on each message in the delivery pass. The send passed
          the size and duplicate checks when it was posted, and is
          counted in the message total whatever the fate. *)
}
(** An interposition point between senders and the network fabric, used by
    the fault-injection layer ([Kecss_faults.Net]) to model adversarial
    message loss, delay, duplication, crash-stops and edge failures
    without forking the engine. Absent (the default), the engine behaves
    exactly as specified above and pays one [match] per vertex and per
    message. *)

(** {1 The message plane}

    Messages live in a flat arena, not in per-message heap objects: a
    send is a slot (edge id, sender, destination, word offset, length)
    plus its payload words in parallel flat int arrays, and a delivery
    threads the slot onto the receiver's chain. The destination is
    resolved when the message is posted and stored in its slot, so the
    delivery pass never looks an edge up in the graph. Each domain keeps
    two arenas across runs, one for the mail being read and one for the
    sends being written, swapped every pass and grown on demand, so once
    they have reached a run's largest pass the engine allocates nothing
    per message. The arrays are bigarrays, outside the OCaml heap: the
    collector never scans them, and their memory shows in the process's
    resident size, not in [Gc] heap or allocation counters.

    With its arenas each domain keeps the run scratch, on the heap and
    grown to the largest graph it has run: a duplicate-send stamp per
    adjacency row position (2m words), the chain heads (n words), the
    active flags (n bytes) and the frontier's words. So a run allocates
    nothing of size n but its programs' states. The stamps only grow and
    a run that quiesces leaves the heads clear; after a run that raised,
    the next run clears every head, so no mail is left behind for it.

    Delivery order: the sends of a pass are delivered after the whole
    step pass, in ascending sender order and each sender's sends in
    posting order, and each delivery goes to the front of its receiver's
    chain. So a vertex reads its mail most recent delivery first;
    replicated and delayed copies join the chain at the point of their
    delivery.

    A run that starts while another is live on the same domain (a step
    that itself runs the engine) gets a fresh pair of arenas and fresh
    scratch, so neither run's stamps can hide the other's posts. *)

val arena_words : unit -> int
(** The capacity of the calling domain's two arenas, in words: seven
    per message slot (edge, sender, destination, offset, length, chain
    link, causal id) plus the payload words. It follows the largest pass
    the domain has run since its arenas were made, rounded up by their
    growth, and no [Gc] counter sees it. *)

val release_arenas : unit -> unit
(** Drops the calling domain's arenas and run scratch, so its next run
    starts from empty ones and grows them again: frees what a large run
    left behind, and lets a caller read one run's {!arena_words} alone.
    A run in progress keeps the arenas it started with. *)

type mail
(** The messages delivered to the stepping vertex in the previous pass,
    read in place. A message is an [int] handle valid only during the
    step that received it; copy what must outlive the step. *)

(** Reading {!mail}: the chain runs from {!Mail.first} through
    {!Mail.next}, most recent delivery first. Walk it with a loop, e.g.
    [let m = ref (Mail.first mail) in while !m >= 0 do ...; m := Mail.next
    mail !m done], which allocates nothing. Every function that takes a
    message raises [Invalid_argument] on a handle that names no message
    of the current pass. *)
module Mail : sig
  val first : mail -> int
  (** The latest message, or [-1] when the vertex has no mail. *)

  val next : mail -> int -> int
  (** The message delivered before this one, or [-1]. *)

  val is_empty : mail -> bool
  val count : mail -> int
  val edge : mail -> int -> int
  (** The edge the message arrived on. *)

  val length : mail -> int -> int
  (** Its payload length in words. *)

  val word : mail -> int -> int -> int
  (** [word m msg i] is payload word [i].
      @raise Invalid_argument outside [0, length m msg). *)

  val payload : mail -> int -> int array
  (** A fresh copy of the payload. *)

  val sub : mail -> int -> pos:int -> int array
  (** A fresh copy of payload words [pos ..].
      @raise Invalid_argument unless [0 <= pos <= length m msg]. *)
end

type outbox
(** Where the stepping vertex posts this pass's sends. Posting copies
    the payload words into the arena, so the caller may reuse its array.
    Sends are delivered after the whole step pass: the counts, the
    hook's [fate] and the probe's send and receive events see the
    senders in ascending order and each sender's messages in the order
    it posted them.

    A send names its link by {e port}: the vertex's own index [i] into
    its adjacency row ([0 <= i < Graph.degree g v], the [i]-th entry of
    {!Kecss_graph.Graph.adjacency}, in ascending edge-id order), the way
    a CONGEST vertex knows its links. The engine reads the edge and the
    neighbour from that row, with no call outside the engine, and
    stores both in the slot. A port outside [[0, degree)] raises
    [Invalid_argument "Network: port P outside [0, D) at vertex V"] at
    the post.

    The post also refuses a payload of more than {!val-cap_words} words
    with {!Message_too_large} and a second post on one port in one step
    with {!Duplicate_send}, checking a stamp per position of the
    sender's own row. Steps run in ascending vertex order and posts in
    posting order, so the first offending post raises, with the fields
    a check in the delivery pass would give. It raises out of the step
    pass: no later vertex steps in that pass, and none of the pass's
    sends is delivered or reaches the probe. *)

val post_port : outbox -> port:int -> int array -> unit
(** [post_port o ~port payload] sends [payload] on the stepping vertex's
    port [port] this pass. *)

val post1_port : outbox -> port:int -> int -> unit
(** [post1_port o ~port w] posts the one-word payload [[|w|]]. *)

val post_sub_port :
  outbox -> port:int -> int array -> pos:int -> len:int -> unit
(** Posts words [pos .. pos + len - 1] of the array.
    @raise Invalid_argument if they are not within it. *)

val forward_port : outbox -> port:int -> mail -> int -> unit
(** [forward_port o ~port m msg] posts a received message's payload as
    is, copying it from arena to arena. *)

type 's program = {
  init : int -> 's;
  (** [init v] builds vertex [v]'s initial state. It may inspect the graph
      locally (own adjacency) — vertices know their incident edges. *)
  step : round:int -> int -> 's -> mail -> outbox -> [ `Active | `Wait | `Idle ];
  (** [step ~round v state mail out] reads the messages delivered to [v]
      last pass, posts this pass's sends to [out], and says whether the
      vertex still wants rounds; state is updated by mutation. Every
      vertex steps in round 0 (no mail); after that a vertex steps only
      in rounds where its last step returned [`Active] or where it has
      mail. An idle vertex without mail is not stepped, so a program
      must not rely on idle steps to send or to change state.

      [`Wait] says the vertex is blocked on mail: it still wants rounds
      and counts as active everywhere the engine counts active vertices
      (quiescence, {!Did_not_quiesce}'s [active], the metrics' active
      series, the probe's active flips), but it is not stepped again
      until mail is delivered to it. A step may return [`Wait] only
      when a step with no mail would change nothing and send nothing,
      so that skipping those steps changes no output. Under a {!hook}
      a waiting vertex is stepped in every pass, as an [`Active] one
      is. *)
}

val run_counted :
  ?probe:Probe.t ->
  ?hook:hook ->
  ?max_rounds:int ->
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
    the flight recorder's per-vertex rings. Every hook runs in ascending
    vertex order on the calling domain, so what is recorded is
    byte-identical whichever domain calls and whatever the pool size.
    With the noop probe each event site costs one boolean test. When
    the probe holds a recording profiler, each pass's step and delivery
    halves are timed with {!Kecss_obs.Prof.time} (clock and minor words
    only) as the spans ["engine/step"] and ["engine/deliver"]; without
    one this costs one boolean test per pass.

    The engine keeps a frontier — a bitset of the vertices the next pass
    steps.  A vertex enters it by stepping to [`Active] or by receiving a
    message; each pass walks it in ascending order and clears it, so an
    engine pass costs O(n/62 + frontier), not O(n), and a vertex that
    waits for mail costs nothing until its mail comes.

    When [?hook] is given, every vertex step is gated by [hook.alive] and
    every sent message by [hook.fate], and a waiting vertex is stepped in
    every pass; postponed messages stay in flight (keeping the engine
    from quiescing) until their delay elapses. The message total always
    counts sends, not deliveries, so it is unaffected by drops and
    duplications.
    @raise Message_too_large at the post of an oversized payload
    @raise Duplicate_send at a vertex's second post on one port in a
      step
    @raise Did_not_quiesce after [max_rounds] (default [16 * n + 10_000]). *)
