(** Exact optimum by branch and bound, for the approximation-ratio
    experiments on small instances.

    The search minimizes total weight over subsets of a candidate edge
    universe, for a {e monotone} feasibility predicate (adding edges never
    breaks feasibility). Pruning: a branch is cut when its weight already
    matches the incumbent, and when even taking all remaining candidates
    cannot reach feasibility. *)

open Kecss_graph

val kecss : Graph.t -> k:int -> Bitset.t option
(** Exact minimum-weight k-ECSS. [None] if [g] is not k-edge-connected. *)

val tap : Graph.t -> Rooted_tree.t -> Bitset.t option
(** Exact minimum-weight tree augmentation of the given spanning tree. *)
