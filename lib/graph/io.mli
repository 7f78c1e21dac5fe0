(** Plain-text serialization of graphs.

    Format: a header line [p kecss <n> <m>] followed by [m] lines
    [e <u> <v> <w>] (a DIMACS-inspired dialect).  Comment lines are
    exactly [c] or [c <text>] — not arbitrary lines whose first letter is
    c.  Edge order, and hence edge ids, round-trip exactly. *)

val to_string : Graph.t -> string

val of_string : string -> Graph.t
(** Raises [Failure] with a line-numbered message on malformed input.
    Malformed includes structural errors caught at parse time: an edge
    line before the header, an endpoint outside [\[0, n)], a self-loop, a
    negative weight, a duplicate edge, or an edge count that contradicts
    the header. *)

val to_channel : out_channel -> Graph.t -> unit

(** {1 Compact binary codec — [kecss-bin/1]}

    Little-endian int64 fields throughout: an 8-byte magic
    ["kecssbin"], then version, [n], [m], then the three flat edge
    arrays (smaller endpoints, larger endpoints, weights), each [m]
    words.  Every array is 8-byte aligned, so {!load_binary} can map
    the file directly ([Unix.map_file] + [Bigarray]) instead of
    copying it through the parser; a seeded n=10^6 graph loads in tens
    of milliseconds versus seconds of text parsing.  Edge ids and
    per-vertex adjacency order round-trip exactly with the text codec.
    The binary reader validates structure (magic, version, lengths,
    endpoint ranges, self-loops, negative weights) with byte-offset
    errors, but unlike {!of_string} it does not reject duplicate
    edges: it is a fast trusted-producer path. *)

val to_binary_string : Graph.t -> string

val of_binary_string : string -> Graph.t
(** Raises [Failure] with a byte-offset message
    ([Io.of_binary: offset <k>: ...]) on truncated input, bad magic, a
    version mismatch, trailing bytes, or a structurally invalid
    edge. *)

val save_binary : string -> Graph.t -> unit
(** Write the binary encoding to a file. *)

val load_binary : string -> Graph.t
(** Read a binary graph file, memory-mapping it when possible (falls
    back to a buffered read on non-regular files or big-endian hosts).
    Same errors as {!of_binary_string}. *)

val is_binary_magic : string -> bool
(** Does this string (or file prefix) start with the magic
    ["kecssbin"]? *)

val load : string -> Graph.t
(** [load path] sniffs the first bytes and dispatches to
    {!load_binary} or the text parser, so every CLI entry point
    accepts either format transparently. *)

val to_dot : ?highlight:Bitset.t -> Graph.t -> string
(** Graphviz rendering; edges in [highlight] are drawn bold/colored.
    Used by the examples to visualise computed subgraphs. *)
