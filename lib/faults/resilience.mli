(** The k−1-failure survival harness: adversarial attack on a solution.

    The whole point of a k-ECSS (Dory, PODC 2018) is that the subgraph H
    survives any k−1 edge failures — equivalently λ(H) ≥ k. This module
    takes a solver's output and {e tries to kill it} from two directions:

    - {b cut-guided search}: if λ(H) ≤ k−1 then every minimum cut of H is
      a disconnecting failure set within the budget; the search hands
      the λ it already holds to [Min_cut_enum.min_cuts] (bridges for
      λ = 1, the exact label census for λ ∈ {2, 3}, exhaustively for
      small n and seeded Karger contraction otherwise), reports the first
      cut as a witness — for the bridges and the census, the first in
      edge-id order — and the enumerator's name as [search];
    - {b random failure sampling}: seeded uniform (k−1)-subsets of H's
      edges are removed and connectivity re-checked, measuring the
      survival rate and the worst residual connectivity λ(H \ F) — the
      margin left {e after} the adversary has spent its budget.

    For any [Verify]-passing solution the report must show
    [witness = None] and [survival_rate = 1.0] — that is the soundness
    link between the static verifier and the failure semantics, and what
    the CI resilience gate asserts. Reports are schema-versioned
    ([kecss-resilience/1]) and deterministic given the rng seed. *)

open Kecss_graph
open Kecss_obs

type report = {
  k : int;               (** the claimed edge connectivity of H *)
  n : int;
  h_edges : int;         (** |H| *)
  spanning : bool;
  lambda : int;          (** true λ(H), uncapped ([Verify] with [?cap]) *)
  margin : int;          (** λ(H) − (k−1): failures beyond the budget
                             needed to disconnect; ≥ 1 iff H is a k-ECSS *)
  search : string;       (** witness search used: ["bridges"] (λ = 1),
                             ["labels"] (λ ∈ {2, 3}), ["exhaustive"]
                             (n ≤ 16), ["karger"] or ["none"] *)
  trials : int;          (** random failure sets sampled *)
  survived : int;
  survival_rate : float; (** survived / trials, 1.0 when trials = 0 *)
  worst_residual_lambda : int;
      (** min λ(H \ F) over every sampled F (and 0 if any disconnected);
          λ(H) when nothing was sampled *)
  witness : int list option;
      (** a failure set of ≤ k−1 edge ids disconnecting H, if one was
          found — [Some []] when H was not even spanning *)
}

val ok : report -> bool
(** No disconnecting failure set found: [witness = None]. *)

val attack :
  ?trials:int ->
  ?rng:Rng.t ->
  ?pool:Kecss_par.Pool.t ->
  Graph.t ->
  h:Bitset.t ->
  k:int ->
  report
(** [attack g ~h ~k] assaults the subgraph [h] of [g] with every weapon
    above. [trials] defaults to 64 random failure sets of size [k−1]
    ([k = 1] needs none: the empty failure set is covered by the λ
    computation). [rng] defaults to a fresh seed-1 stream; pass your own
    to vary or reproduce the sampling.

    Failure-set trials fan out in blocks over [pool] (default
    {!Kecss_par.Pool.default}) with per-block rng streams split from
    [rng] up-front and a canonical-order merge, so the report is
    deterministic given [rng] and identical at every pool size. *)

val schema_version : string
(** ["kecss-resilience/1"]. *)

val to_json : report -> Json.t
(** The full record with a ["schema"] field. *)

val pp : Format.formatter -> report -> unit
(** Human-readable multi-line rendering. *)
