(** The augmentation algorithm Aug_k of §4: given a (k−1)-edge-connected
    spanning subgraph H of a k-edge-connected graph G, add an approximately
    minimum weight edge set A so that H ∪ A is k-edge-connected.

    Structure per iteration (§4):
    {ol
    {- every edge e ∉ H ∪ A computes ρ̃(e) from the uncovered size-(k−1)
       cuts of H it covers — a local computation, since every vertex knows
       all of H ∪ A (O(kn) edges);}
    {- maximum-ρ̃ edges are candidates; each becomes {e active} with the
       guessed probability p, which starts at 1/2^⌈log m⌉ and doubles every
       M·⌈log n⌉ iterations, resetting when ρ̃ drops;}
    {- an auxiliary MST under weights (A ↦ 0, active ↦ 1, rest ↦ 2) filters
       the active candidates, so A stays a forest (Claim 4.1) while every
       active candidate's cuts end the iteration covered (Claim 4.3).}}

    The size-(k−1) cuts of H are its minimum cuts; they are enumerated with
    {!Kecss_connectivity.Min_cut_enum}: exactly by the label census for
    k ≤ 4, by Karger contraction (complete w.h.p.) beyond. An exact
    connectivity re-check with greedy repair ({!repair}) backs the
    termination condition, so the output is unconditionally
    k-edge-connected.

    The iteration loop is {!Cover.solve} with {!Cover.Guessing}: the
    elements are the cuts, the MST filter is its [?filter], and the round
    accounting below is its [?charge] callback.

    Round accounting: one full message-level distributed MST is executed on
    the filter weights of the first iteration and its measured cost is
    charged to every subsequent iteration (same protocol, same topology —
    only weights change, which does not affect the phase structure). Newly
    added edges are pipeline-broadcast over the BFS tree every iteration
    (the "all vertices know A" invariant), and the maximum-ρ̃ agreement
    costs O(D) waves. *)

open Kecss_graph
open Kecss_congest

type config = {
  m_phase : int;  (** the constant M: phase length is [m_phase·⌈log₂ n⌉] *)
  max_iterations : int;  (** safety bound; after it p is pinned to 1 *)
  use_mst_filter : bool;
      (** [false] disables the Line-4 MST filter (every active candidate is
          kept) — the A-mstfilter ablation. A then need not stay a forest
          and the solution weight degrades. *)
}

val default_config : int -> config
(** [default_config n]: M = 1, iteration bound Θ(log³ n). *)

type result = {
  augmentation : Bitset.t;
  iterations : int;
  phases : int;        (** number of distinct (level, p) phases traversed *)
  cut_count : int;     (** size-(k−1) cuts of H that were enumerated *)
  repaired : int;      (** cuts found only by the exact safety net (0 w.h.p.) *)
  active_weight : int; (** total weight of all edges ever active (§4.2's A') *)
}

val cut_problem :
  Graph.t -> h:Bitset.t -> Kecss_connectivity.Min_cut_enum.cut array -> Cover.problem
(** [cut_problem g ~h cuts] is the §4 covering problem: the elements are
    [cuts] (element i is [cuts.(i)]), the candidates are all m edge ids of
    [g] at their weights, and an edge outside [h] covers the cuts it
    crosses (Definition 2.1; an edge of [h] covers nothing). *)

val augment :
  ?config:config ->
  Rounds.t ->
  Rng.t ->
  bfs_forest:Forest.t ->
  Graph.t ->
  h:Bitset.t ->
  k:int ->
  result
(** [augment ledger rng ~bfs_forest g ~h ~k] requires [h] spanning and
    (k−1)-edge-connected, and [g] k-edge-connected. *)

val repair : Kecss_obs.Trace.t -> algo:string -> fail:string ->
  weight:(int -> int) -> Graph.t -> h:Bitset.t -> a:Bitset.t -> k:int -> int
(** The exact safety net of Aug_k and 3-ECSS: while [h ∪ a] is not
    k-edge-connected, adds to [a] the lightest edge (by [weight], then
    id) crossing a global minimum cut, with a ["repair"] event. Returns
    the edges added (0 w.h.p.); raises [Failure fail] if none crosses.
    The re-check is [Edge_connectivity.is_k_edge_connected], the oracle
    [Verify] reads: the exact label census at k = 3 and 4, max-flow
    beyond; the cut to repair comes from max-flow
    ([Edge_connectivity.global_min_cut]). *)
