(** Edge-connectivity queries: the one oracle every layer asks for
    min(λ, k).

    One {!Dfs.summary} pass decides connectivity and bridges and gives
    the minimum degree δ; since λ ≤ δ, no oracle is asked past
    min([upper], δ). A bound of at most 2 needs the pass alone, a bound
    of 3 or 4 the exact label census ({!Min_cut_enum.lambda_upto}), and
    a larger one a sweep of [maxflow(0, t)] over t ≠ 0 with unit
    capacities — exact because vertex 0 lies on one side of any cut —
    each flow stopped at the best so far. {!global_min_cut}, which needs
    a side, runs the same sweep. *)

open Kecss_graph

val pair : ?mask:Bitset.t -> Graph.t -> int -> int -> int
(** [pair g u v] is the number of edge-disjoint u-v paths, λ(u,v). *)

val lambda : ?mask:Bitset.t -> ?upper:int -> Graph.t -> int
(** Global edge connectivity of the (sub)graph; 0 if disconnected. With
    [~upper] the result is [min λ upper] — much faster for "is λ ≥ k"
    queries. The {!Dfs.summary} pass, then {!connected_lambda}. *)

val connected_lambda :
  ?mask:Bitset.t -> ?upper:int -> Graph.t -> Dfs.summary -> int
(** {!lambda} of a (sub)graph whose {!Dfs.summary} the caller already
    holds and found spanning: [max_int] at n = 1, 1 when the pass found
    a bridge, otherwise min(λ, [upper], δ) — the bound itself while it
    is at most 2, the census on a fixed seed (so no caller's rng moves)
    while it is 3 or 4, and the max-flow sweep, its limit starting at
    the bound, beyond. *)

val is_k_edge_connected : ?mask:Bitset.t -> Graph.t -> int -> bool
(** [is_k_edge_connected g k]: does the (sub)graph span all vertices with
    λ ≥ k, i.e. [lambda ~upper:k g >= k]? Every (sub)graph passes at
    [k ≤ 0], and [k = 1] asks connectivity alone. *)

val global_min_cut : ?mask:Bitset.t -> Graph.t -> int * Bitset.t * int list
(** [global_min_cut g] is [(λ, side, cut)] for a minimum cardinality cut:
    the vertex set [side] (containing vertex 0) and the ids of the λ
    crossing edges. Requires n ≥ 2; a disconnected (sub)graph gives
    λ = 0 and vertex 0's component. Always by max-flow, whose last flow
    gives the side; the sweep's limit starts at δ + 1. *)
