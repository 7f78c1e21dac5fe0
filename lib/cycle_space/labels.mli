(** Cycle space sampling (Pritchard–Thurimella), §5.1 of the paper.

    Given a 2-edge-connected spanning subgraph H with a rooted spanning
    tree T ⊆ H, every non-tree edge of H draws a uniform b-bit label and
    every tree edge receives the XOR of the labels of the non-tree edges
    covering it (equivalently, of the fundamental cycles through it) — a
    uniformly random b-bit circulation.

    The resulting labelling φ satisfies, with one-sided error 2^{−b} per
    non-cut candidate (Corollary 5.3):

    - a tree edge [t] is a bridge of H iff φ(t) = 0;
    - {e, f} is a cut pair of H iff φ(e) = φ(f) (Property 5.1).

    Labels fit one machine word ([bits ≤ 62]), i.e. O(log n) bits — one
    CONGEST message. *)

open Kecss_graph
open Kecss_congest

type t
(** A labelling of H, together with its label classes. When the labels
    are made — once per circulation, the count Claim 5.9 learns once per
    iteration — each edge of H is hashed once to give its label a dense
    class index, and n_φ (the number of edges of H labelled φ) is kept
    in an int array by that index, beside each vertex's class of its
    parent edge. {!pairs_covered} and {!is_three_edge_connected} read
    those arrays. *)

val default_bits : int
(** 60 — far beyond the O(log n) needed for w.h.p. correctness at any
    simulated size. *)

val compute : ?bits:int -> Rng.t -> Rooted_tree.t -> h_mask:Bitset.t -> t
(** [compute rng tree ~h_mask] samples a random [bits]-bit circulation of
    the subgraph [h_mask] (which must contain all tree edges) and labels
    every edge of [h_mask]. Sequential reference implementation: the
    sweep {!Kecss_connectivity.Min_cut_enum.label_sweep}, which the exact
    cut census shares. *)

val compute_distributed :
  ?bits:int ->
  Rounds.t ->
  Rng.t ->
  forest:Forest.t ->
  Rooted_tree.t ->
  h_mask:Bitset.t ->
  t
(** The distributed computation of §5.1 / Lemma 5.5: one exchange round for
    non-tree labels, then a leaves-to-root wave in which each vertex XORs
    its incident labels — O(height(T)) rounds, charged to the ledger.
    Each vertex's XOR of its non-tree labels is computed once, before the
    wave. Produces the same distribution as {!compute}. The wave runs on
    [forest], which must be [Forest.of_rooted_tree tree]: a caller that
    circulates many times makes it once (raises [Invalid_argument]
    otherwise). *)

val bits : t -> int
val tree : t -> Rooted_tree.t
val h_mask : t -> Bitset.t

val label : t -> int -> int
(** [label t e] is φ(e); [e] must belong to the labelled subgraph. *)

val groups : t -> (int * int list) list
(** Edges of H grouped by label value (edge lists sorted, groups sorted by
    label). Groups of size ≥ 2 are exactly the cut-pair classes (w.h.p.). *)

val cut_pairs : t -> (int * int) list
(** All pairs {e, f} with φ(e) = φ(f), e < f — per Property 5.1 the cut
    pairs of H (w.h.p.). *)

val tree_edge_count_with_label : t -> int -> int
(** [tree_edge_count_with_label t phi]: n_φ restricted to tree edges. *)

val edge_count_with_label : t -> int -> int
(** n_φ of §5.3: the number of edges of H with label φ (0 for a label no
    edge carries). One pass over H. *)

val pairs_covered : t -> int -> int
(** [pairs_covered t e] — Claim 5.8: the number of cut pairs of H covered
    by the outside edge [e] (not in H), namely
    Σ_φ n_{φ,e}·(n_φ − n_{φ,e}) over the labels φ of the tree edges on
    [e]'s fundamental path. It climbs that path once from both ends, the
    deeper end first, until they meet, so it needs no LCA query. It
    keeps the class indices of the classes of two edges or more (a class
    of one adds 1·(1 − 1) = 0), sorts them as ints to count n_{φ,e}
    ([Array.stable_sort], which insertion-sorts short arrays), and reads
    each n_φ from the class array: O(|path|) for the climb plus
    O(p log p) for the p indices kept, nothing proportional to |H| and
    no hashing. Calls share no mutable state. Raises [Invalid_argument]
    if [e] is in H. *)

val is_two_edge_connected : t -> bool
(** No tree edge labelled 0 — iff H is 2-edge-connected (one-sided:
    a bridge is always detected). *)

val is_three_edge_connected : t -> bool
(** Claim 5.10: n_{φ(t)} = 1 for every tree edge t, read from the same
    per-vertex classes as {!pairs_covered}: O(n). One-sided: a cut pair
    is always detected. *)

val pp : Format.formatter -> t -> unit
(** Per-edge labels in hex plus the cut-pair classes — the rendering used
    to reproduce the paper's Figure 2. *)
