(** Parent-pointer forests over a graph's edges — the shape on which all
    tree-structured communication (waves, pipelines) runs.

    A forest is given by [parent_edge.(v)] (graph edge id towards the
    parent, [-1] at roots).  Fragments of a partially built MST, the final
    MST, BFS trees and TAP segments are all forests in this sense; because
    distinct trees of a forest are edge-disjoint, one engine execution runs
    a wave on {e all} trees of the forest simultaneously and the round
    count is the maximum over the trees — exactly the "process all
    fragments/segments in parallel" steps of the paper.

    A forest also carries its links as {e ports} (a vertex's index into
    its own adjacency row, {!Graph.adjacency}), so a primitive posts to
    its parent and children with {!Network.post_port} and never looks an
    edge up by id. Children are stored as CSR arrays in ascending vertex
    order, the order in which every primitive posts to them. All of it
    is computed once, when the forest is made, and is never mutated. *)

open Kecss_graph

type t = private {
  graph : Graph.t;
  parent : int array;       (** parent vertex, -1 at roots *)
  parent_edge : int array;  (** edge id to parent, -1 at roots *)
  parent_port : int array;  (** the port of [parent_edge] at the vertex, -1 at roots *)
  depth : int array;        (** depth within own tree, roots at 0 *)
  child_off : int array;
      (** [n + 1] offsets: [v]'s children are
          [child.(child_off.(v)) .. child.(child_off.(v + 1) - 1)] *)
  child : int array;        (** each vertex's children, ascending *)
  child_port : int array;
      (** aligned with [child]: the port of the child's edge at its parent *)
  roots : int list;         (** in increasing order *)
  root_of : int array;      (** the root of each vertex's tree *)
}

val make : Graph.t -> parent_edge:int array -> t
(** Validates acyclicity and endpoint consistency.
    Raises [Invalid_argument] otherwise. *)

val of_rooted_tree : Rooted_tree.t -> t
(** The single-tree forest of a spanning tree. It shares the tree's
    parent, parent-edge and depth arrays rather than copying them, and
    walks no tree: the children, the ports and [root_of] are the only
    new arrays. *)

val singleton : Graph.t -> t
(** The forest of n isolated roots. *)

val max_depth : t -> int
(** Maximum vertex depth over all trees — the wave cost. *)
