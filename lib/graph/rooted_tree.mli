(** Rooted spanning trees of a graph, with the query machinery the paper's
    algorithms rely on: ancestry, LCA, fundamental paths of non-tree edges,
    and batch coverage counting.

    A tree is always a subset of the edges of an ambient {!Graph.t}; tree
    edges are referenced by their graph edge ids.  For a non-root vertex
    [x], "the tree edge of [x]" means the edge to its parent, so tree edges
    are also conveniently indexed by their deeper endpoint. *)

type t

val of_parent_edges : Graph.t -> root:int -> int array -> t
(** [of_parent_edges g ~root pe] builds the rooted tree in which vertex [v]
    hangs from edge id [pe.(v)] ([pe.(root)] must be [-1]). Raises
    [Invalid_argument] if the edges do not form a spanning tree rooted at
    [root]. *)

val of_mask : Graph.t -> root:int -> Bitset.t -> t
(** [of_mask g ~root mask] roots the spanning tree given as an edge mask at
    [root] (BFS orientation). Raises [Invalid_argument] if [mask] is not a
    spanning tree. *)

val bfs_tree : Graph.t -> root:int -> t
(** The BFS spanning tree of a connected graph. *)

val graph : t -> Graph.t
val root : t -> int

val parent : t -> int -> int
(** Parent vertex, [-1] for the root. *)

val parent_edge : t -> int -> int
(** Edge id to the parent, [-1] for the root. *)

val depth : t -> int -> int

val parents : t -> int array
(** Every vertex's parent, [-1] for the root. Do not mutate. *)

val depths : t -> int array
(** Every vertex's depth. Do not mutate. *)

val height : t -> int
(** Maximum depth. *)

val children : t -> int -> int list

val preorder : t -> int array
(** Vertices in DFS preorder (root first). Do not mutate. *)

val edges_mask : t -> Bitset.t
(** Mask of the n-1 tree edge ids (fresh copy). *)

val is_tree_edge : t -> int -> bool

val lower_endpoint : t -> int -> int
(** [lower_endpoint t id] is the deeper endpoint of tree edge [id]. *)

val is_ancestor : t -> int -> int -> bool
(** [is_ancestor t a v]: is [a] an ancestor of [v] (reflexively)? O(1). *)

val lca : t -> int -> int -> int
(** Lowest common ancestor, O(log n) by binary lifting. *)

val covers : t -> int -> int -> bool
(** [covers t e tree_e]: does non-tree edge [e]'s fundamental cycle contain
    tree edge [tree_e]? (Definition 2.1 specialised to trees: [e] covers the
    size-1 cut [tree_e].) O(1). *)

val fundamental_path : t -> int -> int list
(** [fundamental_path t e] lists the tree edge ids on the tree path between
    the endpoints of [e] — the set S_e of §3. [e] may also be a tree edge,
    in which case the path is [[e]]. *)

val path_between : t -> int -> int -> int list
(** [path_between t u v] lists the tree edge ids on the unique tree path
    from [u] to [v] (u-side first). *)

val cover_counts : t -> int list -> int array
(** [cover_counts t es] returns, for every vertex [x], how many of the given
    non-tree edges cover the tree edge [{x, parent x}] (index by deeper
    endpoint; entry for the root is 0). Linear-time batch version of
    {!covers} via subtree-sum differencing. *)

val ancestor_at_depth : t -> int -> int -> int
(** [ancestor_at_depth t v d] is the ancestor of [v] at depth [d <= depth v].
    O(log n). *)

(** {1 Path-covering walker} *)

type walker
(** One sweep that covers tree edges with the fundamental paths of
    non-tree edges, in an order the caller picks: each tree edge is
    covered once, by the first path to reach it. Path-compressed jump
    pointers skip covered stretches, so a whole sweep costs near-linear
    time however the paths overlap. The walker owns the covered bits and
    the jump pointers. *)

val walker : t -> walker
(** A fresh walker with every tree edge uncovered. *)

val cover_path : walker -> int -> unit
(** [cover_path w e] covers the still-uncovered tree edges on edge [e]'s
    fundamental path, recording [e] as their cover. Allocates nothing. *)

val covered_by : walker -> int -> int
(** [covered_by w x] is the edge that covered the tree edge above vertex
    [x], or [-1] while it is uncovered (always [-1] at the root). *)
