(** Linear-time DFS connectivity structure: spanning, bridges, minimum
    degree and 2-edge-connected components.

    A {e bridge} is exactly a cut of size 1 (Definition 2.1 with k = 2), so
    this module is both a substrate for the TAP algorithms and the ground
    truth that tests verify label- and tree-based cut detection against.

    Everything here is one O(n + m) pass: an iterative Tarjan lowlink
    over the graph's CSR rows that skips the edges outside the mask (one
    byte per edge id, set from the mask once). It decides at the same
    time whether the subgraph spans, which of its edges are bridges, and
    its minimum degree δ. [Verify] and [Edge_connectivity] read that
    pass instead of running a search of their own, and cap every λ
    search at δ, since λ ≤ δ. *)

open Kecss_graph

type summary = {
  spanning : bool;  (** connected on all [n] vertices (so never at n = 0) *)
  bridges : int;  (** how many edges of the subgraph are bridges *)
  min_degree : int;
      (** δ: the fewest subgraph edges at one vertex, parallel edges
          counted apart; [max_int] at n = 0 *)
}

val summary : ?mask:Bitset.t -> Graph.t -> summary
(** The one pass over the (sub)graph, without listing its bridges. *)

val bridges : ?mask:Bitset.t -> Graph.t -> int list
(** Edge ids of all bridges of the (sub)graph, in increasing id order.
    Parallel edges are handled correctly (neither of two parallel edges is
    a bridge). *)

val is_two_edge_connected : ?mask:Bitset.t -> Graph.t -> bool
(** Connected on all [n] vertices and bridgeless? *)

val two_edge_components : ?mask:Bitset.t -> Graph.t -> int array
(** Labels each vertex with its 2-edge-connected component (components of
    the graph after removing all bridges), numbered from 0. *)
