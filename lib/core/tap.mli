(** Distributed weighted tree augmentation (§3) — the engine behind
    Theorem 1.1.

    Given the segment decomposition of a spanning tree T of a weighted
    graph G, finds a set A of non-tree edges such that T ∪ A is
    2-edge-connected, with guaranteed approximation ratio O(log n) against
    the optimal augmentation.

    Each iteration follows §3 exactly:
    {ol
    {- every non-tree edge e ∉ A computes its rounded cost-effectiveness
       ρ̃(e) from the number of still-uncovered tree edges on its
       fundamental path;}
    {- the edges at the maximum level are the candidates;}
    {- each candidate draws a random rank r_e ∈ {1..n⁸};}
    {- every uncovered tree edge votes for the first candidate covering it
       (by rank, then id);}
    {- a candidate receiving at least |Ce|/8 votes joins A.}}

    Communication per iteration is the §3.1 pattern, executed with real
    message-level primitives on the segment wave-forest and the BFS tree:
    per-segment root-path pipelines (Claims 3.1–3.2), keyed aggregation of
    per-highway summaries to the BFS root, a pipelined broadcast of the
    O(√n) summaries, one exchange across candidate edges, and O(D) waves
    for the global maximum — O(D + √n) rounds per iteration (Lemma 3.3).

    Zero-weight edges are all added to A before the first iteration, as in
    the paper.

    The iteration loop is {!Cover.solve} with {!Cover.Voting}: the
    elements are the tree edges, a non-tree edge covers its fundamental
    path, and the communication above is the [?charge] callback — the
    global maximum once the level is agreed, the §3.1 pattern after the
    commits. *)

open Kecss_graph
open Kecss_congest

type config = {
  vote_divisor : int;
      (** a candidate needs ≥ |Ce|/vote_divisor votes; the paper proves the
          ratio for 8. Exposed for the A-vote ablation. *)
  max_iterations : int;
      (** hard safety bound; beyond it the implementation falls back to one
          greedy (sequential-style) addition per iteration so termination
          is unconditional. W.h.p. never reached. *)
}

val default_config : int -> config
(** [default_config n]: divisor 8, iteration bound Θ(log² n) with generous
    constants. *)

type iteration_info = Cover.iteration = {
  index : int;
  level : Cost.level;        (** the maximum ρ̃ this iteration *)
  candidates : int;
  added : int;
  uncovered_left : int;      (** after the iteration *)
}

type result = {
  augmentation : Bitset.t;   (** A — non-tree edges; T ∪ A is 2EC *)
  iterations : int;
  trace : iteration_info list;
  cost_sum : float;
      (** Σ_t cost(t) of the §3.3 charging argument, recorded online; the
          Lemma 3.5 invariant  w(A) ≤ 8·Σ cost(t)  is checked in tests. *)
  forced : int;              (** fallback greedy additions (0 w.h.p.) *)
}

val problem : Rooted_tree.t -> Cover.problem
(** The §3 covering problem of a spanning tree T of G: the elements are
    T's n−1 edges (the one above vertex x is element x, or x−1 past the
    root), the candidates are all m edge ids of G at their weights, and a
    non-tree edge covers the tree edges of its fundamental path (a tree
    edge covers nothing). The paths are flattened once, one LCA per
    non-tree edge. Raises [Failure] if some tree edge lies on no
    fundamental path, i.e. G is not 2-edge-connected. *)

val augment :
  ?config:config ->
  Rounds.t ->
  Rng.t ->
  bfs_forest:Forest.t ->
  Segments.t ->
  result
(** Runs the algorithm. The graph must be 2-edge-connected (every tree
    edge coverable); raises [Failure] otherwise, before any round is
    charged. *)
