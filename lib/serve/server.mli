(** The [kecss serve] daemon: a resident {!Maint} instance answering
    requests over a length-prefixed JSON wire protocol (schema
    [kecss-serve/1], framing from {!Kecss_obs.Json.Frame}).

    {2 Protocol}

    One request per frame, a JSON object with a ["req"] kind and
    kind-specific parameters; one response frame per request. Kinds:

    - [solve] — run a solver ([algo] ∈ kecss | thurimella | greedy |
      certificate, default kecss) on the {e live} subgraph; optional
      [k], [seed], [edges] (include universe edge ids).
    - [verify] — {!Maint.verify} of the resident solution ([cap]?).
    - [resilience] — seeded {!Kecss_faults.Resilience.attack} against
      the resident solution ([trials], at most 1024 — the attack runs on
      the sequential accept loop — and [seed]).
    - [audit] — verification report + size bound + lower bound / ratio +
      maintenance counters.
    - [stats] — deterministic counters; wall-clock latency histograms
      only when ["timing": true] (so default transcripts are
      byte-identical across pool sizes).
    - [update] — single ([op] = delete | insert, [edge]) or ["batch"]
      list; each gated application reports path taken and verification.
    - [churn] — a {!Kecss_faults.Plan} spec reinterpreted as an update
      stream ([cut=eE\@rR] deletes, [ins=eE\@rR] inserts, cuts before
      inserts at equal rounds) plus [updates] extra seeded random
      flips; responds with applied/skipped counts, path histogram and
      the final verification report.
    - [shutdown] — acknowledge and stop the session and accept loop.

    An ["id"] field, if present, is echoed in the response. Malformed
    frames, unknown kinds and handler failures produce [ok:false] error
    responses — exceptions never escape the session loop. *)

open Kecss_graph
open Kecss_obs

val schema_version : string

type t
(** Server state: resident {!Maint.t}, per-kind request counters and
    latency histograms, and the shutdown flag. *)

val create : ?seed:int -> ?live:Bitset.t -> Graph.t -> k:int -> t
(** [create g ~k] loads the graph and builds the resident certificate
    (see {!Maint.create}). [?seed] is the default for seeded request
    kinds ([solve], [resilience]). *)

val maint : t -> Maint.t
val stopping : t -> bool

val latencies : t -> (string * Prof.Hist.t) list
(** Per-request-kind wall-clock latency histograms (nanoseconds), for
    the bench tier and end-of-run reporting. *)

val handle : t -> Json.t -> Json.t * [ `Continue | `Shutdown ]
(** [handle t request] dispatches one decoded request. Pure protocol
    core — transports below and the tests drive it directly. *)

val run_session :
  ?max_frame:int ->
  t ->
  read:(bytes -> int -> int -> int) ->
  write:(string -> unit) ->
  unit
(** Frame-decode [read] into requests, [write] one response frame each,
    until shutdown, EOF, or a (sticky) framing error — the latter two
    answer with an error frame when mid-frame and close. *)

type address = Unix_socket of string | Tcp of string * int

val address_of_string : string -> (address, string) result
(** [unix:PATH] (or a bare path) and [tcp:HOST:PORT]. *)

val pp_address : Format.formatter -> address -> unit

val listen : ?log:(string -> unit) -> t -> address -> unit
(** Bind, then serve connections sequentially until a session handles a
    [shutdown] request. Per-connection errors are logged and the loop
    continues. The socket (and a unix socket path) is cleaned up on
    exit. A stale unix socket file at the path is reclaimed before
    binding, but if something that is {e not} a socket already exists
    there, [listen] raises [Failure] without touching it — the same guard
    protects the cleanup path. *)

val run_stdio : t -> unit
(** One session over stdin/stdout — the [--stdio] transport. *)

val client :
  ?retries:int ->
  input:in_channel ->
  output:out_channel ->
  address ->
  (unit, string) result
(** Scripted client: one JSON request per non-empty input line, one
    compact JSON response line out — the session transcript. Retries
    the connect (100 ms apart) to cover daemon startup races. *)
