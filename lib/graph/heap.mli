(** Binary min-heap over elements with integer priorities. *)

type 'a t

val create : unit -> 'a t
(** An empty heap. *)

val size : 'a t -> int

val push : 'a t -> prio:int -> 'a -> unit
(** [push h ~prio x] inserts [x] with priority [prio]. *)

val pop : 'a t -> (int * 'a) option
(** [pop h] removes and returns a minimum-priority element, or [None] on an
    empty heap. Ties are broken arbitrarily but deterministically. *)

val peek : 'a t -> (int * 'a) option
(** [peek h] is the minimum without removing it. *)
