(** Distributed minimum spanning tree in the CONGEST model.

    The construction follows the two-part structure of Kutten–Peleg (the
    algorithm the paper invokes, [25]):

    {ol
    {- {e Controlled fragment growth}: synchronous Borůvka with randomized
       star merging (each fragment flips head/tail; a tail fragment merges
       along its minimum outgoing edge into a head fragment). A fragment
       whose size reaches the cap (default ⌈√n⌉) stops initiating merges
       but still absorbs. This yields O(√n) fragments of size — hence tree
       diameter — O(√n), in O((√n + D) log n) rounds.}
    {- {e Root-resolved Borůvka}: the per-fragment minimum outgoing edges
       are aggregated up a BFS tree with the pipelined sorted-key merge,
       the BFS root resolves the merges locally, and the merge map is
       pipeline-broadcast back — O(D + √n) rounds per phase, O(log n)
       phases.}}

    Edge weights are compared lexicographically as (weight, edge id), so
    the MST is unique and Borůvka never creates cycles.

    The fragment structure at the end of part 1 is exposed because the
    §3.2 segment decomposition is built from exactly these fragments. *)

open Kecss_graph

type result = {
  tree : Rooted_tree.t;     (** the MST, rooted at vertex 0 (min id) *)
  mask : Bitset.t;          (** MST edge ids *)
  fragment_id : int array;  (** part-1 fragment of each vertex (root vertex id) *)
  fragment_count : int;
  global_edges : int list;  (** MST edges joining different fragments, sorted *)
}

exception Missing_wave_value of { vertex : int; wave : string }
(** Raised by part 1 when a convergecast or broadcast wave quiesced
    without a value at [vertex] that the next step reads — which only a
    crash fault causes. [wave] names the wave: ["capped and coin
    flags"], ["fragment MOEs"] or ["termination test"]. *)

exception Not_a_tree of { edges : int; n : int }
(** Raised when part 2 ends with [edges] tree edges on [n] vertices, not
    [n - 1], which only faults cause: its pipelines assume FIFO links. *)

val run : ?cap:int -> Rounds.t -> Rng.t -> Graph.t -> result
(** Builds the MST of a connected graph (on a disconnected one,
    {!Prim.bfs_tree} raises [Invalid_argument] before any round). [cap]
    is the part-1 fragment size cap (default ⌈√n⌉); rounds are charged
    to the ledger under ["mst/..."] categories. *)
