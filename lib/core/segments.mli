(** The tree decomposition of §3.2 (following Ghaffari–Parter):
    O(√n) edge-disjoint segments of diameter O(√n), with highways and a
    skeleton tree.

    Construction, mirroring the paper:
    {ol
    {- The MST fragments (part 1 of {!Kecss_congest.Mst}) play the role of
       the decomposition's fragments; the MST edges joining different
       fragments are the {e global edges}, learned by everyone over the BFS
       tree.}
    {- {e Marking}: endpoints of global edges and the root are marked; then
       each fragment is scanned leaves-to-root (a real {!Kecss_congest.Prim.wave_up})
       and every vertex that hears ids of two different marked descendants
       marks itself — after which the marked set is closed under LCA
       (Lemma 3.4), has size O(√n), and every vertex has a marked ancestor
       within distance O(√n).}
    {- {e Segments}: every marked vertex d ≠ root defines a segment whose
       highway is the tree path from d up to its nearest marked proper
       ancestor r; subtrees hanging off internal highway vertices join that
       segment; subtrees hanging off a marked vertex v with no marked
       vertex below them join a segment rooted at v (an existing one, or a
       fresh highway-less segment (v,v)).}
    {- The {e skeleton tree} has the marked vertices as nodes and one edge
       per highway segment.}} *)

open Kecss_graph
open Kecss_congest

type seg = {
  index : int;
  r : int;  (** root of the segment (ancestor of all its vertices) *)
  d : int;  (** unique descendant; [d = r] for highway-less segments *)
  highway : int list;
      (** tree edge ids on the path r..d, from r's side down; [] iff d=r *)
  members : int list;
      (** all vertices of the segment, including r and d, sorted *)
}

type t

val build : Rounds.t -> bfs_forest:Forest.t -> Mst.result -> t
(** Builds the decomposition from the MST result, charging the real
    communication (global-edge broadcast, fragment marking waves,
    segment-id dissemination) to the ledger. *)

val tree : t -> Rooted_tree.t
(** The underlying spanning tree (the MST, rooted at vertex 0). *)

val count : t -> int
val iter : (seg -> unit) -> t -> unit

val marked_count : t -> int
val is_marked : t -> int -> bool

val seg_of_vertex : t -> int -> int
(** The segment that privately owns the vertex; [-1] for marked vertices,
    which may belong to several segments. *)

val seg_of_tree_edge : t -> int -> int
(** Segments are edge-disjoint: the unique segment containing the tree
    edge. Raises [Invalid_argument] on a non-tree edge. *)

val on_highway : t -> int -> bool
(** Is this tree edge on its segment's highway? *)

val skeleton_parent : t -> int -> int
(** For a marked vertex v ≠ root: the skeleton parent (= r of the segment
    whose d is v). [-1] for the root; [Invalid_argument] on unmarked. *)

val segment_of_d : t -> int -> int
(** For a marked vertex v ≠ root: the index of the highway segment whose
    unique descendant is v. *)

val wave_forest : t -> Forest.t
(** The spanning tree severed at every marked vertex — the forest on which
    per-segment waves execute in parallel (marked vertices are its roots,
    and each of its trees has O(√n) depth). Used by the TAP iterations. *)

val in_same_segment : t -> int -> int -> bool
(** Do the two vertices share a segment (counting marked vertices as
    members of all their segments)? *)

val segments_at : t -> int -> int list
(** All segments a vertex belongs to (one for unmarked vertices). *)

val max_segment_height : t -> int
(** Largest vertex depth measured within a segment from its r. *)

val pp : Format.formatter -> t -> unit
(** The Figure-1-style rendering: segments with highways, and the skeleton
    tree. *)
