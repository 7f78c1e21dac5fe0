(** Edge-connectivity queries built on {!Maxflow}.

    [λ(G)] — the global edge connectivity — is computed as
    [min over t ≠ 0 of maxflow(0, t)] with unit capacities, which is exact
    because vertex 0 lies on one side of any cut. *)

open Kecss_graph

val pair : ?mask:Bitset.t -> Graph.t -> int -> int -> int
(** [pair g u v] is the number of edge-disjoint u-v paths, λ(u,v). *)

val lambda : ?mask:Bitset.t -> ?upper:int -> Graph.t -> int
(** Global edge connectivity of the (sub)graph; 0 if disconnected. With
    [~upper] the result is [min λ upper] — much faster for "is λ ≥ k"
    queries. One {!Dfs.summary} pass decides connectivity and bridges and
    gives the minimum degree δ; since λ ≤ δ, no max-flow is asked past
    min([upper], δ), and none runs at all while that is at most 2. *)

val connected_lambda :
  ?mask:Bitset.t -> ?upper:int -> Graph.t -> Dfs.summary -> int
(** {!lambda} of a (sub)graph whose {!Dfs.summary} the caller already
    holds and found spanning: [max_int] at n = 1, 1 when the pass found
    a bridge, otherwise min(λ, [upper], δ) from max-flows whose limit
    starts at min([upper], δ). *)

val is_k_edge_connected : ?mask:Bitset.t -> Graph.t -> int -> bool
(** [is_k_edge_connected g k]: does the (sub)graph span all vertices with
    λ ≥ k? [k = 0] only requires the vertex set, [k = 1] connectivity. *)

val global_min_cut : ?mask:Bitset.t -> Graph.t -> int * Bitset.t * int list
(** [global_min_cut g] is [(λ, side, cut)] for a minimum cardinality cut:
    the vertex set [side] (containing vertex 0) and the ids of the λ
    crossing edges. Requires n ≥ 2; a disconnected (sub)graph gives
    λ = 0 and vertex 0's component. The max-flows stop at δ + 1. *)
