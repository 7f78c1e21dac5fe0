(** O(D)-round distributed connectivity verification, the direct
    application of cycle space sampling that the paper highlights (§1.2):
    "an O(D)-round algorithm for verifying if a graph is 2-edge-connected
    or 3-edge-connected".

    One-sided error: a bridge or cut pair always shows in the labels, so
    a verdict of [true] (k-connected) is always correct; [false] can be a
    false alarm, with probability about 2^{−bits} per candidate. All
    communication is executed on the engine and charged to the ledger. *)

open Kecss_graph
open Kecss_congest

val two_edge_connected :
  ?bits:int -> ?mask:Bitset.t -> Rounds.t -> Rng.t -> Graph.t -> bool
(** Is the (sub)graph spanning and 2-edge-connected? The subgraph must be
    connected (a BFS tree of it is built first); O(D) rounds. *)

val three_edge_connected :
  ?bits:int -> ?mask:Bitset.t -> Rounds.t -> Rng.t -> Graph.t -> bool
(** Claim 5.10: the (sub)graph is 3-edge-connected iff n_φ(t) = 1 for
    every tree edge. Requires 2-edge-connectivity to label; returns
    [false] directly when even that fails. O(D) rounds. *)
