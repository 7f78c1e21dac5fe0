(** Thurimella's sparse-certificate algorithm [36] — the prior-work
    baseline for unweighted k-ECSS.

    k rounds of "compute a maximal spanning forest of the remaining graph,
    move its edges to the certificate" produce a k-edge-connected spanning
    subgraph with at most k(n−1) edges: a 2-approximation for unweighted
    k-ECSS (OPT ≥ kn/2). The distributed version costs
    O(k(D + √n log* n)) rounds — k MST-like forest computations — which we
    charge by executing the message-level MST once on unit weights and
    charging its measured cost per phase. *)

open Kecss_graph
open Kecss_congest

type result = {
  solution : Bitset.t;
  forests : Bitset.t list; (** the k forests, in extraction order *)
  rounds : int;
}

val sparse_certificate :
  ?ledger:Rounds.t -> Rng.t -> Graph.t -> k:int -> result
(** Requires a k-edge-connected graph (each of the k forests is then
    spanning on the first round, and the union is k-edge-connected). The
    forests are {!Kecss_connectivity.Certificate.levels} on unit weights,
    so each takes the edges in id order. *)
