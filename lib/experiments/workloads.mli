(** The graph workloads of the experiment suite, with fixed seeds so that
    every table in EXPERIMENTS.md regenerates identically.

    Two diameter regimes matter to the round bounds: [high_d] families
    (circulants: D ≈ n/4 ≫ √n) and [low_d] families (random k-connected
    graphs: D = O(log n) ≪ √n). *)

open Kecss_graph

val seed : int
(** The suite-wide base seed (20180522 — the paper's date). *)

val weighted_circulant : n:int -> Graph.t
(** 4-regular circulant C_n(1,2) with uniform weights in [1, n²]:
    2-edge-connected (exactly 4-edge-connected), D ≈ n/4. *)

val weighted_random : n:int -> k:int -> Graph.t
(** Random k-edge-connected graph with ~2n extra chords, uniform weights in
    [1, n²]: D = O(log n). *)

val unweighted_low_d : n:int -> Graph.t
(** Random 3-edge-connected unit-weight graph with ~3n chords: the
    Theorem 1.3 regime (D small and independent of n). *)

val spread_random : n:int -> ratio:int -> Graph.t
(** 2-edge-connected random graph with log-uniform weights of spread
    [ratio] (drives the level count of Remark §3.4). *)

val tiny_exact : seed:int -> Graph.t
(** An 8-vertex weighted 2/3-edge-connected instance small enough for the
    exact branch-and-bound. *)

val decomposition_shapes : n:int -> (string * Graph.t) list
(** Weighted connected graphs of contrasting tree shapes for the L3.4
    experiment: path, caterpillar, lollipop, random tree, random graph. *)
