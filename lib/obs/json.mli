(** A minimal JSON tree, writer and syntax checker.

    The telemetry exporters ({!Export}, [Rounds.to_json], the bench
    harness) all produce JSON; this module is the single place that knows
    how to escape strings and print numbers so the output is actually
    parseable. Zero dependencies beyond the stdlib. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_buffer : Buffer.t -> t -> unit

val to_string : t -> string
(** Compact rendering (no insignificant whitespace). Non-finite floats
    render as [null] — JSON has no representation for them. *)

val parse : string -> (t, string) result
(** [parse s] parses one JSON value (recursive-descent, stdlib-only).
    Numbers without a fraction or exponent part become [Int] (falling
    back to [Float] outside the native int range), everything else
    [Float]; [\u] escapes are decoded to UTF-8 (surrogate pairs
    combined, lone surrogates replaced by U+FFFD). Object field order
    is preserved, duplicate keys are kept. For any [v] built from
    finite floats, [parse (to_string v) = Ok v] up to the usual
    integer-valued-[Float]/[Int] identification of JSON. *)

val check : string -> (unit, string) result
(** [check s] verifies that [s] is one syntactically well-formed JSON
    value ({!parse} with the result discarded). Used by the test suite
    to validate exporter output without an external JSON dependency. *)

(** {2 Accessors} *)

val member : string -> t -> t option
(** [member key v] is the field [key] of an [Obj] (first occurrence),
    [None] on any other constructor. *)

val to_int_opt : t -> int option
val to_float_opt : t -> float option
(** [Int]s widen to float. *)

val to_string_opt : t -> string option

(** {2 Wire framing}

    Length-prefixed JSON frames for the [kecss serve] wire protocol:
    [<decimal payload length>\n<payload>\n]. The decoder is incremental —
    feed it whatever byte chunks the socket yields and pull frames as
    they complete. Malformed input (non-digit or over-long length
    prefixes, frames past the size limit, a missing terminator, payloads
    that are not exactly one JSON value) yields a sticky [`Error] rather
    than an exception, so protocol errors never escape an accept loop. *)

module Frame : sig
  val default_max_length : int
  (** 16 MiB. *)

  val encode_string : string -> string
  (** [encode_string payload] is the frame bytes for [payload]. *)

  val encode : t -> string
  (** [encode v] frames the compact rendering of [v]. *)

  type decoder

  val decoder : ?max_length:int -> unit -> decoder
  (** A fresh decoder; frames longer than [max_length] (default
      {!default_max_length}) are rejected. *)

  val feed : decoder -> string -> unit
  (** Append a chunk of received bytes. No-op after an error. *)

  val pending : decoder -> int
  (** Bytes fed but not yet consumed by a returned frame — nonzero at
      end-of-input means the stream died mid-frame. *)

  val next_string : decoder -> [ `Frame of string | `Await | `Error of string ]
  (** Extract the next complete frame's raw payload. [`Await] means more
      input is needed; [`Error] is sticky — the decoder stays failed and
      every later call returns the same error. *)

  val next : decoder -> [ `Frame of t | `Await | `Error of string ]
  (** {!next_string} plus a strict {!parse} of the payload (trailing
      garbage inside a frame is a protocol error too). *)
end
