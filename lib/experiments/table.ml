type cell = Kecss_obs.Export.cell = S of string | I of int | F of float

type t = {
  title : string;
  columns : string list;
  mutable rows_rev : cell list list;
  mutable notes_rev : string list;
}

let create ~title ~columns = { title; columns; rows_rev = []; notes_rev = [] }

let add_row t row =
  if List.length row <> List.length t.columns then
    invalid_arg "Table.add_row: wrong arity";
  t.rows_rev <- row :: t.rows_rev

let note t s = t.notes_rev <- s :: t.notes_rev
let rows t = List.rev t.rows_rev

let render t =
  let notes = List.rev_map (fun n -> "  note: " ^ n ^ "\n") t.notes_rev in
  Format.asprintf "%a%s"
    (fun ppf -> Kecss_obs.Export.table ppf ~title:t.title ~columns:t.columns)
    (rows t) (String.concat "" notes)

let print t = print_string (render t)
