(** Dinic's maximum-flow algorithm on undirected graphs.

    Each undirected edge of capacity [c] is modelled as a pair of opposite
    arcs of capacity [c] sharing residual capacity in the standard way,
    which computes undirected flow (and hence edge connectivity when
    capacities are 1). *)

open Kecss_graph

type network

val of_graph : ?mask:Bitset.t -> ?cap:(Graph.edge -> int) -> Graph.t -> network
(** Builds a reusable flow network over the (sub)graph. [cap] defaults to
    [fun _ -> 1], the right capacity for edge-connectivity queries. *)

val max_flow : ?limit:int -> network -> s:int -> t:int -> int
(** [max_flow net ~s ~t] runs Dinic from scratch, restoring every
    residual capacity first, so a network is reusable across source/sink
    pairs, and returns the flow value. With [~limit] the search stops early once the
    flow reaches [limit] (used for "is connectivity >= k" queries); the
    returned value is then [min flow limit]. *)

val min_cut_side : network -> Bitset.t
(** After {!max_flow}, the set of vertices residually reachable from the
    source — the source side of a minimum s-t cut. *)

val cut_edges : ?mask:Bitset.t -> Graph.t -> Bitset.t -> int list
(** [cut_edges g side] lists the (masked) edge ids with exactly one endpoint
    in [side], in increasing order — δ(side). *)
