(** Sparsification front-end: shrink a dense input before the distributed
    solvers run, preserving k-edge-connectivity of the certificate.

    The kept edges are the sparse certificate of
    {!Kecss_connectivity.Certificate}: k successively edge-disjoint
    lex-minimum (weight, id) spanning forests, ≤ k(n−1) edges — the
    certificate [kecss serve] maintains. Every cut keeps [min k] of its
    capacity, and the lightest edges are the ones kept. Rounds are charged
    analytically, O(D + √n log* n) per forest, under
    ["sparsify/thurimella/forest"].

    A sparsified run must always be gated by
    [Kecss_connectivity.Verify.check_kecss] on the final solution against
    the {e original} graph — sparsification buys speed, never silent
    correctness loss. *)

open Kecss_graph
open Kecss_congest

type t = {
  kept : Bitset.t;  (** retained edges, as ids of the original graph *)
  edges_in : int;  (** [Graph.m] of the input *)
  edges_out : int;  (** [Bitset.cardinal kept] *)
  rounds : int;  (** simulated rounds charged to the sparsify stage *)
  sub : Graph.t;  (** the sparsified graph, with re-indexed edge ids *)
  to_original : int array;  (** sub edge id → original edge id *)
}

val run : ?ledger:Rounds.t -> Graph.t -> k:int -> t
(** [run g ~k] sparsifies [g] so that every cut of the result has
    capacity ≥ [min k] (capacity of the same cut in [g]). Charged under
    the ledger scope ["sparsify"]; when the ledger carries a trace, emits
    [sparsify edges in]/[sparsify edges out] counters. [sub] preserves
    weights and vertex ids; only edge ids are re-indexed (ascending in
    original id, so the mapping is deterministic). Requires [k >= 1]. *)

val lift : t -> Bitset.t -> Bitset.t
(** [lift t sol] maps a solution mask over [t.sub]'s edge ids back to a
    mask over the original graph's edge ids. *)
