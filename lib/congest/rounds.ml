open Kecss_obs

type t = {
  mutable total : int;
  mutable total_messages : int;
  mutable prefix : string list; (* innermost first *)
  categories : (string, int) Hashtbl.t;
  message_categories : (string, int) Hashtbl.t;
  probe : Probe.t;
  hook : Network.hook option;
}

let of_probe probe ~hook =
  {
    total = 0;
    total_messages = 0;
    prefix = [];
    categories = Hashtbl.create 16;
    message_categories = Hashtbl.create 16;
    probe;
    hook;
  }

let create ?trace ?metrics ?prof ?causal ?flight ?hook () =
  of_probe (Probe.create ?trace ?metrics ?prof ?causal ?flight ()) ~hook

let probe t = t.probe
let trace t = Probe.trace t.probe
let metrics t = Probe.metrics t.probe
let hook t = t.hook

let scoped_category t category =
  List.fold_left (fun acc p -> p ^ "/" ^ acc) category t.prefix

let charge t ~category r =
  if r < 0 then invalid_arg "Rounds.charge: negative";
  t.total <- t.total + r;
  let category = scoped_category t category in
  let prev = Option.value ~default:0 (Hashtbl.find_opt t.categories category) in
  Hashtbl.replace t.categories category (prev + r);
  (* a charged round advances the trace's logical clock: span durations
     are rounds, not wall time *)
  let trace = Probe.trace t.probe in
  Trace.advance trace (float_of_int r);
  Trace.count trace "rounds" r

let charge_messages t ~category m =
  if m < 0 then invalid_arg "Rounds.charge_messages: negative";
  t.total_messages <- t.total_messages + m;
  let category = scoped_category t category in
  let prev =
    Option.value ~default:0 (Hashtbl.find_opt t.message_categories category)
  in
  Hashtbl.replace t.message_categories category (prev + m);
  Trace.count (Probe.trace t.probe) "messages" m

let total_messages t = t.total_messages

let scoped t name f =
  t.prefix <- name :: t.prefix;
  Fun.protect
    ~finally:(fun () -> t.prefix <- List.tl t.prefix)
    (fun () -> Probe.phase t.probe (Probe.Ledger t.prefix) f)

let total t = t.total

let by_category t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.categories []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let messages_by_category t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.message_categories []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let reset t =
  t.total <- 0;
  t.total_messages <- 0;
  Hashtbl.reset t.categories;
  Hashtbl.reset t.message_categories

let to_json t =
  let cats kvs = Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) kvs) in
  Json.to_string
    (Json.Obj
       [
         ("total_rounds", Json.Int t.total);
         ("total_messages", Json.Int t.total_messages);
         ("rounds", cats (by_category t));
         ("messages", cats (messages_by_category t));
       ])

let pp ppf t =
  Format.fprintf ppf "@[<v>total rounds: %d (messages: %d)" t.total
    t.total_messages;
  List.iter
    (fun (cat, r) -> Format.fprintf ppf "@,  %-24s %8d" cat r)
    (by_category t);
  Format.fprintf ppf "@]"
