(** Causal message tracing and critical-path attribution.

    A recording collector assigns every CONGEST message a dense id and a
    {e parent set} — the messages its sender received at the end of the
    previous round, i.e. the deliveries that enabled the send.  The
    resulting dependency DAG is recorded in flat int columns during the
    engine's sequential delivery pass, so the stream is byte-identical at
    any pool size, and {!analyze} reduces it to the quantities the paper's
    round bounds talk about: the longest dependency chains (the causal
    critical path), per-phase round attribution, and per-vertex slack.

    Recording costs a few array writes per message; the default {!noop}
    reduces every entry point to one tag test.  One collector spans the
    many engine runs of a solve: chains never cross runs (inboxes reset),
    and the analysis reports both the single longest chain and the sum of
    per-run critical chains — the causal lower bound on the counted round
    total. *)

type t

val noop : t
val create : unit -> t
val enabled : t -> bool

(** {1 Phase scope}

    Phases name the solver scope engine rounds are attributed to.
    [Probe.phase] opens one per ledger scope and one per engine run of a
    primitive, so phase paths coincide with the ledger's category names
    (e.g. ["mst/wave_up"]). *)

val phase_begin : t -> string -> unit
(** Pushes [name] onto the phase stack; the current phase is the
    ["/"]-joined stack. *)

val phase_end : t -> unit
(** Pops the innermost phase.
    @raise Invalid_argument when the stack is empty. *)

(** {1 Engine-facing recording}

    Called by [Kecss_congest.Network.run_counted], through [Probe], from
    its sequential passes only — ids, parents and round indices are
    independent of the pool size by construction. *)

val run_begin : t -> unit
(** Marks the start of one engine run. Chains never span runs. *)

val group : t -> parents:int list -> int
(** [group t ~parents] interns one stepping vertex's enabling inbox (the
    ids delivered to it last round) and returns a group id for its sends
    this round. The empty list maps to the shared group [0]. *)

val on_send : t -> src:int -> dst:int -> edge:int -> group:int -> int
(** Records one sent message and returns its id. Ids are dense and
    ascending in delivery order; every parent id is strictly smaller. *)

val on_round : t -> unit
(** Records one counted engine round under the current phase. Calls
    mirror the engine's round counting exactly, so {!rounds} equals the
    sum of the engine's per-run counted rounds. *)

val join : t -> t -> unit
(** [join parent child] appends [child]'s recorded runs to [parent], so
    {!analyze} on [parent] reports both as if one recorder had seen them
    in sequence: counts and critical rounds add up, the longest chain is
    the longer of the two. No-op unless both record. *)

val messages : t -> int
val rounds : t -> int
val runs : t -> int

(** {1 Analysis} *)

type phase_row = {
  ph_name : string;
  ph_rounds : int;  (** counted engine rounds attributed to the phase *)
  ph_messages : int;
  ph_crit : int;  (** critical-chain hops landing in the phase *)
}

type chain = {
  ch_len : int;  (** messages on the chain *)
  ch_vertex : int;  (** destination of the final message *)
  ch_edge : int;
  ch_first : int;  (** counted-round index of the first hop *)
  ch_last : int;
  ch_phase : string;  (** phase of the final hop *)
}

type slack_row = {
  sl_vertex : int;
  sl_slack : int;
      (** hops between the vertex's tightest dependency chain and its
          run's critical chain; 0 = on a critical path *)
  sl_messages : int;
}

type report = {
  rp_rounds : int;
  rp_messages : int;
  rp_runs : int;
  rp_critical : int;  (** longest single dependency chain, in messages *)
  rp_critical_rounds : int;
      (** sum of per-engine-run longest chains: the causal lower bound on
          the counted round total *)
  rp_phases : phase_row list;  (** sorted by phase name *)
  rp_chains : chain list;  (** chain endpoints, longest first *)
  rp_slack : slack_row list;  (** senders, tightest first *)
  rp_zero_slack : int;  (** senders with a zero-slack message *)
}

val analyze : ?chains:int -> ?slack:int -> t -> report
(** Reduces the recorded DAG in O(messages + parents). [?chains] and
    [?slack] (default 32 each) bound the detail lists; the scalar fields
    always cover the whole run. Deterministic: ties break towards smaller
    message ids / vertex numbers. *)
