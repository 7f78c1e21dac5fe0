(** The sparse certificate of Nagamochi–Ibaraki and Thurimella [36]: k
    successively edge-disjoint lex-minimum (weight, id) spanning forests.

    Their union C keeps every cut up to k: λ_C(u, v) ≥ min(k, λ(u, v))
    for every pair, so C is k-edge-connected exactly when the graph is,
    with at most k(n−1) edges. The (weight, id) order makes C a function
    of the edge set alone; on unit weights it is edge-id order. *)

open Kecss_graph

val levels : ?mask:Bitset.t -> Graph.t -> k:int -> int array
(** [levels ?mask g ~k] is each edge's forest index: [1..k], or [0] when
    no forest takes the edge or the edge is outside [mask] (default: every
    edge). One pass over the edges in ascending (weight, id) order through
    k union-finds puts each edge in the first forest whose components it
    connects, which is the same as peeling k lex-min spanning forests one
    after another. The sort is skipped when no weight falls as the id
    rises. Raises [Invalid_argument] unless [k >= 1]. *)
