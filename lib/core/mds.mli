(** Minimum dominating set through the covering framework — the Jia,
    Rajaraman & Suel algorithm [17] whose guessing idea §4 borrows, and the
    voting variant the paper's own 2-spanner/MDS work [2] uses.

    Elements and candidates are both the vertices; a vertex covers its
    closed neighborhood. *)

open Kecss_graph

type result = {
  set : Bitset.t;     (** over vertices *)
  size : int;
  iterations : int;
}

val solve : ?strategy:Cover.strategy -> ?seed:int -> Graph.t -> result
(** Default strategy: [Voting {divisor = 8}], the paper's choice. *)

val is_dominating : Graph.t -> Bitset.t -> bool

val exact : Graph.t -> Bitset.t
(** Minimum dominating set by branch and bound; n ≤ ~24. *)

val greedy_size : Graph.t -> int
(** Size of the classical greedy dominating set. *)
