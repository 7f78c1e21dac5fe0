(** Unweighted 3-ECSS in O(D log³ n) rounds (Theorem 1.3, §5).

    The starting subgraph H is the O(D)-round 2-approximate unweighted
    2-ECSS ({!Ecss2_unweighted}), whose BFS tree T has height O(D).  Each
    iteration samples a fresh random O(log n)-bit circulation of H ∪ A with
    the distributed labelling wave (Lemma 5.5), from which every candidate
    edge e ∉ H ∪ A computes in O(D) rounds the number of cut pairs it
    covers:  ρ(e) = Σ_φ n_{φ,e}·(n_φ − n_{φ,e})  (Claim 5.8).  Candidates
    at the maximum rounded level then join A with the guessed probability p
    of §4 — no MST filter is needed in the unweighted case.

    Error handling follows Lemma 5.11: labelling errors are one-sided, so
    when the labels report 3-edge-connectivity (all n_φ(t) = 1, Claim 5.10)
    the result is unconditionally correct; the level used is additionally
    clamped by the previous iteration's, and an exact connectivity check
    with greedy repair guards the pathological case. *)

open Kecss_graph
open Kecss_congest

type result = {
  solution : Bitset.t;    (** H ∪ A: spanning, 3-edge-connected *)
  h : Bitset.t;           (** the unweighted 2-ECSS the run started from *)
  augmentation : Bitset.t;
  iterations : int;
  phases : int;
  repaired : int;         (** greedy-repair additions (0 w.h.p.) *)
  edge_count : int;
}

val solve_with : ?bits:int -> Rounds.t -> Rng.t -> Graph.t -> result
(** Requires an unweighted (weights are ignored) 3-edge-connected graph.
    [bits] is the circulation label width (§5's b; default
    {!Kecss_cycle_space.Labels.default_bits}). The activation
    probability doubles every ⌈log₂(n+1)⌉ iterations at a level, and the
    loop stops after 20 ⌈log₂(n+1)⌉³ + 500 iterations. *)

val solve : ?bits:int -> ?seed:int -> Graph.t -> result

val solve_weighted_with :
  ?bits:int ->
  ?tap_config:Tap.config ->
  Rounds.t ->
  Rng.t ->
  Graph.t ->
  result
(** The §5.4 remark: weighted 3-ECSS. The starting subgraph is the
    weighted 2-ECSS of Theorem 1.1 (MST + TAP), the circulation tree is
    the MST, and cost-effectiveness is cut-pairs-per-weight; each
    iteration costs O(h_MST) rounds instead of O(D), so the total is
    O(h_MST·log³ n) — worse than §4 in the worst case, as the paper
    notes, but much better on shallow MSTs. *)

val solve_weighted : ?bits:int -> ?seed:int -> Graph.t -> result
