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

val lambda_upto : mask:Bitset.t -> Graph.t -> upper:int -> int
(** [lambda_upto ~mask g ~upper] is min(λ, [upper]) of the subgraph
    [mask] of [g], 0 when it is disconnected — the [connectivity] of
    {!check_kecss}'s report, by the oracles described there. The census
    draws its labels from a fixed seed, so no caller's rng moves. *)

val check_kecss : ?cap:int -> Graph.t -> Bitset.t -> k:int -> report
(** [check_kecss g sol ~k] verifies that the edge set [sol] is a spanning
    k-edge-connected subgraph of [g] and reports its cost. By default λ
    is computed with early exit at [k+1], so verification stays cheap but
    the report cannot distinguish "just barely k-connected" from "well
    above k". Pass [?cap] (clamped to at least [k]; e.g. [max_int]) to
    raise the early-exit ceiling and read the true λ — what the
    resilience report does to expose the failure margin λ − (k−1).

    min(λ, cap) comes from the bridges alone while the cap is at most 2,
    from {!Min_cut_enum.lambda_upto} (bridges, then the exact label
    census of 2- and 3-cuts) while it is 3 or 4, and from capped
    max-flows ({!Edge_connectivity.lambda}) beyond. All three give the
    same number. *)

val check_augmentation :
  ?cap:int -> Graph.t -> h:Bitset.t -> aug:Bitset.t -> k:int -> report
(** Verifies that [h ∪ aug] is k-edge-connected; [weight] counts only the
    augmentation edges (the objective of Aug_k). [?cap] as in
    {!check_kecss}. *)

val pp_report : Format.formatter -> report -> unit
