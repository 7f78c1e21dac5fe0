(** Edge-connectivity queries built on {!Maxflow}.

    [λ(G)] — the global edge connectivity — is computed as
    [min over t ≠ 0 of maxflow(0, t)] with unit capacities, which is exact
    because vertex 0 lies on one side of any cut. *)

open Kecss_graph

val pair : ?mask:Bitset.t -> Graph.t -> int -> int -> int
(** [pair g u v] is the number of edge-disjoint u-v paths, λ(u,v). *)

val lambda : ?mask:Bitset.t -> ?upper:int -> Graph.t -> int
(** Global edge connectivity of the (sub)graph; 0 if disconnected. With
    [~upper] each flow stops at [upper], so the result is
    [min λ upper] — much faster for "is λ ≥ k" queries. *)

val connected_lambda : ?mask:Bitset.t -> ?upper:int -> Graph.t -> int
(** {!lambda} of a (sub)graph the caller already knows to be connected,
    without the components search that establishes it. *)

val is_k_edge_connected : ?mask:Bitset.t -> Graph.t -> int -> bool
(** [is_k_edge_connected g k]: does the (sub)graph span all vertices with
    λ ≥ k? [k = 0] only requires the vertex set, [k = 1] connectivity. *)

val global_min_cut : ?mask:Bitset.t -> Graph.t -> int * Bitset.t * int list
(** [global_min_cut g] is [(λ, side, cut)] for a minimum cardinality cut:
    the vertex set [side] (containing vertex 0) and the ids of the λ
    crossing edges. Requires a connected (sub)graph with n ≥ 2. *)
