(** Sequential greedy set-cover baselines (§2.1's "inherently sequential"
    algorithm): one maximum-cost-effectiveness edge per step. These give
    the classical O(log n) sequential approximation the distributed
    algorithms are compared against in the B-baselines experiment, and a
    quality yardstick (the distributed solutions should be within a small
    factor of greedy).

    Both are {!Kecss_core.Cover.greedy} on the distributed algorithms' own
    covering problems: {!tap} on {!Kecss_core.Tap.problem}, and each
    level of {!kecss} on {!Kecss_core.Augk.cut_problem} followed by
    {!Kecss_core.Augk.repair}. Each step adds the exact maximiser of
    |uncovered elements| / w(e), counting zero weight as infinite and
    breaking ties toward the smaller edge id. *)

open Kecss_graph

val tap : Graph.t -> Rooted_tree.t -> Bitset.t
(** Greedy weighted TAP: repeatedly add the non-tree edge maximizing
    |uncovered path edges| / w(e) (zero-weight edges first) until every
    tree edge is covered. Returns the augmentation A. Raises [Failure] if
    the graph is not 2-edge-connected. *)

val kecss : Graph.t -> k:int -> Bitset.t
(** Greedy k-ECSS: the MST, then greedy Aug_i for i = 2 … k. Each level
    asks [Edge_connectivity.lambda] for min(λ(H), i) once, then covers
    the minimum cuts of H
    ({!Kecss_connectivity.Min_cut_enum.min_cuts}: the exact label census
    for i ≤ 4; beyond, exhaustive for n ≤ 16 and seeded Karger otherwise,
    which keeps k ≥ 5 to small instances, n ≤ 24): it repeatedly adds
    the edge maximizing uncovered-cuts/weight, then repairs exactly.
    Exact-coverage greedy, so its ratio is the classical H_n bound.
    Small instances only. Raises [Invalid_argument] if [k < 1] or, at
    [k ≥ 2], G is disconnected, and [Failure] if G is connected but not
    k-edge-connected. *)
