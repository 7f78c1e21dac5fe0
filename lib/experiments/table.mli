(** Experiment tables: rows and notes, rendered by
    {!Kecss_obs.Export.table} with the notes appended. *)

type cell = Kecss_obs.Export.cell = S of string | I of int | F of float
(** The exporters' cell type; [F] prints with 3 decimals. *)

type t

val create : title:string -> columns:string list -> t

val add_row : t -> cell list -> unit
(** Row length must match the column count. *)

val note : t -> string -> unit
(** Free-form footnote printed under the table. *)

val render : t -> string
val print : t -> unit
