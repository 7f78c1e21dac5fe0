(** Enumeration of all minimum edge cuts of a connected (sub)graph.

    §4 of the paper assumes each vertex, knowing the whole subgraph H,
    locally enumerates the cuts of size k−1 of H (H is (k−1)-edge-connected,
    so these are exactly its minimum cuts, of which there are at most
    n(n−1)/2).  This module provides that local computation:

    - {!census}: exact, for cuts of size 1–3 — bridges by DFS, and the
      sets of 2 or 3 edges whose §5 cycle-space labels XOR to zero, each
      confirmed by deletion: one O(m) label sweep, O(n·m) lookups more
      for size 3, and one O(n + m) search per collision. {!min_cuts},
      Aug_k (k ≤ 4) and, through {!lambda_upto}, the edge-connectivity
      oracle [Edge_connectivity.connected_lambda] (bounds 3–4, after its
      δ cap) use it;
    - {!enumerate_exhaustive}: exact, by scanning all 2^(n-1) vertex sides —
      for small n and for cross-validating the other enumerators;
    - {!enumerate}: seeded Karger contraction — finds every minimum cut with
      high probability, in the spirit of the paper's own citation of
      Karger's bound on the number of minimum cuts (footnote 4). The only
      path for cuts of size ≥ 4, and a test oracle for the census. *)

open Kecss_graph

type cut = {
  edge_ids : int list;  (** crossing edges, sorted increasing — the set C *)
  side : Bitset.t;      (** the side of the bipartition containing vertex 0 *)
}

val covers : Graph.t -> cut -> int -> bool
(** [covers g c e]: does edge [e] cover cut [c] (Definition 2.1), i.e. are
    [e]'s endpoints on opposite sides? *)

val enumerate_exhaustive : ?mask:Bitset.t -> Graph.t -> size:int -> cut list
(** All cuts δ(S) with exactly [size] crossing edges and both sides
    non-empty, deduplicated by edge set. Exponential in [n]; guarded to
    [n <= 24]. *)

val enumerate :
  ?mask:Bitset.t ->
  ?trials:int ->
  ?pool:Kecss_par.Pool.t ->
  rng:Rng.t ->
  Graph.t ->
  size:int ->
  cut list
(** Karger-contraction enumeration of the cuts of exactly [size] crossing
    edges. Complete w.h.p. when [size] equals the minimum cut value λ;
    [trials] defaults to [3 n² ⌈ln n⌉]. [size = 1] short-circuits to the
    exact DFS bridge enumeration.

    Trials run as blocks on [pool] (default {!Kecss_par.Pool.default}),
    each block with its own rng stream split from [rng] up-front and the
    found cuts merged in canonical block order: the result is
    deterministic given [rng] and identical at every pool size. *)

val label_sweep : bits:int -> Rng.t -> Rooted_tree.t -> h_mask:Bitset.t -> int array
(** [label_sweep ~bits rng tree ~h_mask] is §5.1's sequential cycle-space
    sampling (Pritchard–Thurimella): every non-tree edge of [h_mask], in
    increasing id order, draws a uniform [bits]-bit label, and every tree
    edge gets the XOR of the labels of the non-tree edges covering it — a
    uniformly random circulation. Indexed by edge id, [-1] outside
    [h_mask]; [tree ⊆ h_mask] is the caller's to ensure. The one sweep
    behind {!census} and [Kecss_cycle_space.Labels.compute]. *)

val census :
  ?bits:int -> ?mask:Bitset.t -> rng:Rng.t -> Graph.t -> size:int -> cut list
(** Every cut δ(S) of the connected (sub)graph H with exactly [size] ∈
    {1, 2, 3} crossing edges — the same set as {!enumerate_exhaustive},
    sorted by [edge_ids].

    Size 1 is the DFS bridges. For sizes 2 and 3, H gets one BFS tree
    and one {!label_sweep} of [bits] (default 60) from [rng]: a set of
    edges is a cut iff its labels XOR to zero under every circulation
    (Property 5.1), so every cut collides, as do other sets with
    probability 2^−bits each. Each collision is confirmed by deleting its
    edges and 2-colouring the components left, which also gives [side]:
    nothing is missed and nothing false is kept, whatever [rng] draws.
    Raises [Invalid_argument] unless H is connected and [1 ≤ size ≤ 3]. *)

val collisions :
  ?bits:int -> ?mask:Bitset.t -> rng:Rng.t -> Graph.t -> size:int -> int list list
(** The zero-XOR sets {!census} confirms, before confirmation, for [size]
    2 or 3: every cut and the false collisions, sorted. Same labels as
    {!census} given the same [rng] state. *)

val lambda_upto : ?mask:Bitset.t -> rng:Rng.t -> Graph.t -> upper:int -> int
(** [min λ upper] for [upper] 3 or 4 on a connected, bridgeless
    (sub)graph — what [Edge_connectivity.connected_lambda], its one
    caller, learns from its {!Dfs.summary} pass before it asks — from
    the {!census}'s confirmed collisions of size 2 and then 3, stopping
    at the first: exact, like a capped max-flow sweep. Neither the
    connectivity nor the bridges are searched again. *)

val min_cuts :
  ?mask:Bitset.t -> rng:Rng.t -> Graph.t -> size:int -> string * cut list
(** [min_cuts g ~size] is every minimum cut of the connected (sub)graph
    whose edge connectivity λ the caller already knows to be [size],
    with the name of the enumerator that ran: ["bridges"] at λ = 1,
    ["labels"] ({!census}) at λ ∈ {2, 3}, ["exhaustive"]
    ({!enumerate_exhaustive}) for n ≤ 16 and ["karger"] ({!enumerate},
    complete w.h.p.) beyond — the [search] names of the resilience
    report. Raises [Invalid_argument] at [size ≤ 0], as the census
    does. *)
