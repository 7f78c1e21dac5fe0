(** Solution verification: the checks every algorithm's output is put
    through in tests, examples and experiments. *)

open Kecss_graph

type report = {
  spanning : bool;       (** does the subgraph touch every vertex? *)
  connectivity : int;    (** λ of the subgraph (capped, see [?cap]) *)
  required : int;        (** the k that was requested *)
  weight : int;          (** total weight of the chosen edges *)
  edge_count : int;
  ok : bool;             (** spanning ∧ connectivity ≥ required *)
}

val check_kecss : ?cap:int -> Graph.t -> Bitset.t -> k:int -> report
(** [check_kecss g sol ~k] verifies that the edge set [sol] is a spanning
    k-edge-connected subgraph of [g] and reports its cost. By default λ
    is computed with early exit at [k+1], so verification stays cheap but
    the report cannot distinguish "just barely k-connected" from "well
    above k". Pass [?cap] (clamped to at least [k]; e.g. [max_int]) to
    raise the early-exit ceiling and read the true λ — what the
    resilience report does to expose the failure margin λ − (k−1).

    One O(n + m) {!Dfs.summary} pass over the subgraph decides
    [spanning], finds whether it has a bridge and gives its minimum
    degree δ; {!Edge_connectivity.connected_lambda} reads that pass for
    the connectivity, asking its oracles for min(λ, cap, δ) only. Every
    minimally k-edge-connected graph has a vertex of degree k (Mader),
    so at the default cap a near-minimal 2-ECSS needs the pass alone,
    and a 3-ECSS the 2-cut census at most. *)

val check_augmentation :
  ?cap:int -> Graph.t -> h:Bitset.t -> aug:Bitset.t -> k:int -> report
(** Verifies that [h ∪ aug] is k-edge-connected; [weight] counts only the
    augmentation edges (the objective of Aug_k). [?cap] as in
    {!check_kecss}. *)

val pp_report : Format.formatter -> report -> unit
