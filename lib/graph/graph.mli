(** Undirected weighted graphs with stable integer edge identifiers.

    Vertices are [0 .. n-1].  Edges carry non-negative integer weights (the
    paper assumes integer weights polynomial in [n]).  Parallel edges are
    allowed; self-loops are not.  Edge identifiers are array indices and are
    stable: subgraphs are represented externally as {!Bitset.t} masks over
    edge ids rather than as re-indexed graphs, so an edge means the same
    thing in a graph and in all of its subgraphs.

    The representation is flat CSR: endpoints and weights live in three
    int arrays indexed by edge id, and adjacency is a packed
    neighbor/edge-id array pair with per-vertex offsets, read through the
    allocation-free {!iter_adj}/{!fold_adj}/{!adj_nbr_at}/{!adj_eid_at}
    and {!edge_u}/{!edge_v}/{!weight} accessors. {!edge},
    {!iter_edges} and {!fold_edges} build [edge] records on the fly. *)

type edge = private {
  id : int;  (** the edge identifier; stable across subgraph masks *)
  u : int;   (** smaller endpoint *)
  v : int;   (** larger endpoint *)
  w : int;   (** weight, [>= 0] *)
}

type t

val make : n:int -> (int * int * int) list -> t
(** [make ~n spec] builds a graph on vertices [0..n-1] from a list of
    [(u, v, w)] triples. Raises [Invalid_argument] on out-of-range
    endpoints, self-loops, or negative weights. *)

val of_arrays : n:int -> int array -> int array -> int array -> t
(** [of_arrays ~n u v w] is the bulk constructor: edge [i] joins
    [u.(i)] and [v.(i)] with weight [w.(i)].  The graph takes ownership
    of the three arrays (endpoints may be swapped in place so the
    smaller one comes first); the caller must not reuse them.  Same
    validation as {!make}, without the O(m) intermediate list. *)

val n : t -> int
(** Number of vertices. *)

val m : t -> int
(** Number of edges. *)

val edge : t -> int -> edge
(** [edge g id] is the edge with identifier [id]. *)

val endpoints : t -> int -> int * int
(** [endpoints g id] is [(u, v)] with [u < v]. *)

val weight : t -> int -> int
(** [weight g id] is the weight of edge [id]. *)

val edge_u : t -> int -> int
(** [edge_u g id] is the smaller endpoint of edge [id]; O(1), no
    allocation (unlike {!endpoints}, which builds a pair). *)

val edge_v : t -> int -> int
(** [edge_v g id] is the larger endpoint of edge [id]. *)

val other_end : t -> int -> int -> int
(** [other_end g id x] is the endpoint of edge [id] that is not [x].
    Raises [Invalid_argument] if [x] is not an endpoint. *)

val degree : t -> int -> int

val iter_adj : t -> int -> (int -> int -> unit) -> unit
(** [iter_adj g v f] calls [f neighbor edge_id] for each incident edge of
    [v], in ascending edge-id order.  No allocation. *)

val fold_adj : t -> int -> ('a -> int -> int -> 'a) -> 'a -> 'a
(** [fold_adj g v f init] folds [f acc neighbor edge_id] over the
    incident edges of [v] in ascending edge-id order. *)

val adj_nbr_at : t -> int -> int -> int
(** [adj_nbr_at g v i] is the neighbor across the [i]-th incident edge of
    [v], [0 <= i < degree g v]; O(1), no allocation. *)

val adj_eid_at : t -> int -> int -> int
(** [adj_eid_at g v i] is the id of the [i]-th incident edge of [v]. *)

val adjacency : t -> int array * int array * int array
(** [(off, nbr, eid)]: the CSR arrays themselves, for a loop that walks
    many rows without a call per entry. Vertex [v]'s incident edges sit
    at positions [off.(v) .. off.(v + 1) - 1] of [nbr] (the neighbour)
    and [eid] (the edge id), in ascending edge-id order: position
    [off.(v) + i] is [v]'s {e port} [i], the entry {!adj_nbr_at} and
    {!adj_eid_at} read. Shared, not copied: do not mutate. *)

val find_edge : t -> int -> int -> int option
(** [find_edge g u v] is the id of some edge joining [u] and [v], if any. *)

val iter_edges : (edge -> unit) -> t -> unit
val fold_edges : (edge -> 'a -> 'a) -> t -> 'a -> 'a

val total_weight : t -> int
(** Sum of all edge weights. *)

val mask_weight : t -> Bitset.t -> int
(** [mask_weight g s] is the total weight of the edges whose ids are in
    [s]. *)

val all_edges_mask : t -> Bitset.t
(** A fresh mask containing every edge id. *)

val no_edges_mask : t -> Bitset.t
(** A fresh empty mask over the edge-id universe. *)

val map_weights : (edge -> int) -> t -> t
(** [map_weights f g] is [g] with each edge's weight replaced by [f e];
    ids, endpoints and adjacency are unchanged. *)

val unit_weights : t -> t
(** Every weight set to 1. *)

val bfs : ?mask:Bitset.t -> t -> int -> int array
(** [bfs g src] returns the array of hop distances from [src], [-1] for
    unreachable vertices. [mask] restricts traversal to the given edges. *)

val bfs_tree : ?mask:Bitset.t -> t -> int -> int array * int array
(** [bfs_tree g src] is [(dist, parent_edge)] where [parent_edge.(v)] is the
    edge id connecting [v] to its BFS parent ([-1] for [src] and for
    unreachable vertices). *)

val components : ?mask:Bitset.t -> t -> int array
(** [components g] labels each vertex with a component id in
    [0 .. c-1], numbered by first appearance. *)

val num_components : ?mask:Bitset.t -> t -> int

val is_connected : ?mask:Bitset.t -> t -> bool
(** Is the (sub)graph connected, counting {e all} [n] vertices? *)

val eccentricity : ?mask:Bitset.t -> t -> int -> int
(** Largest hop distance from the vertex; raises [Invalid_argument] if some
    vertex is unreachable. *)

val diameter : ?mask:Bitset.t -> t -> int
(** Exact hop diameter, by [n] BFS traversals. Requires connectivity. *)

val max_weight : t -> int
(** The largest edge weight, 0 on an edgeless graph. *)

val pp : Format.formatter -> t -> unit
(** Human-readable multiline rendering (header plus one line per edge). *)
