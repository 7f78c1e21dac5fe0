(** Fixed-universe bit sets, used throughout for edge-id and vertex sets. *)

type t

val create : int -> t
(** [create n] is the empty subset of universe [{0, ..., n-1}]. *)

val copy : t -> t
val add : t -> int -> unit
val remove : t -> int -> unit
val mem : t -> int -> bool
val cardinal : t -> int
val is_empty : t -> bool
val clear : t -> unit

val iter : (int -> unit) -> t -> unit
(** [iter f t] applies [f] to members in increasing order. *)

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
val elements : t -> int list
val of_list : int -> int list -> t
val full : int -> t

val union_into : t -> t -> unit
(** [union_into dst src] sets [dst := dst ∪ src]. Universes must match. *)

val inter_into : t -> t -> unit
(** [inter_into dst src] sets [dst := dst ∩ src]. *)

val diff_into : t -> t -> unit
(** [diff_into dst src] sets [dst := dst \ src]. *)

val equal : t -> t -> bool
val subset : t -> t -> bool
(** [subset a b] tests [a ⊆ b]. *)
