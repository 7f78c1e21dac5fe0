(* The harness's own spans, recorded around its calls into each layer and
   kept in memory until the run writes them out as Chrome trace JSON.
   Ids start at 1; parent 0 is the root. [group] ties the spans of one
   operation or request together. *)

module Json = Kecss_obs.Json

type t = {
  id : int;
  name : string;
  parent : int;
  group : int;
  t0 : float;
  t1 : float;
}

let recorded = ref []
let last_id = ref 0

let fresh () =
  incr last_id;
  !last_id

let add ?(id = fresh ()) ?(parent = 0) ?(group = 0) name t0 t1 =
  recorded := { id; name; parent; group; t0; t1 } :: !recorded

let to_chrome () =
  let spans = List.rev !recorded in
  let origin = List.fold_left (fun acc s -> Float.min acc s.t0) infinity spans in
  Json.Obj
    [
      ( "traceEvents",
        Json.List
          (List.map
             (fun s ->
               Json.Obj
                 [
                   ("name", Json.Str s.name);
                   ("ph", Json.Str "X");
                   ("ts", Json.Float ((s.t0 -. origin) *. 1e6));
                   ("dur", Json.Float ((s.t1 -. s.t0) *. 1e6));
                   ("pid", Json.Int 1);
                   ("tid", Json.Int 1);
                   ( "args",
                     Json.Obj
                       [
                         ("id", Json.Int s.id);
                         ("parent", Json.Int s.parent);
                         ("group", Json.Int s.group);
                       ] );
                 ])
             spans) );
      ("displayTimeUnit", Json.Str "ms");
    ]

let write path =
  let oc = open_out path in
  output_string oc (Json.to_string (to_chrome ()));
  output_char oc '\n';
  close_out oc
