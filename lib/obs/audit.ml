type quality = {
  weight : int;
  edge_count : int;
  lower_bound : int;
  greedy_weight : int;
  ratio : float;
  verified : bool;
  connectivity : int;
}

type cost = {
  rounds : int;
  messages : int;
  rounds_by_category : (string * int) list;
  messages_by_category : (string * int) list;
  engine : Metrics.summary;
}

type t = {
  algo : string;
  k : int;
  n : int;
  m : int;
  seed : int;
  quality : quality;
  cost : cost;
  coverage : (string * (int * int) list) list;
  violations : Monitor.violation list;
}

let schema_version = "kecss-audit/1"

let iteration_suffix = "/iteration"

let iteration_algo name =
  let ln = String.length name and ls = String.length iteration_suffix in
  if ln > ls && String.sub name (ln - ls) ls = iteration_suffix then
    Some (String.sub name 0 (ln - ls))
  else None

let coverage_curves events =
  (* first-seen algo order; per algo the current iteration index and the
     reversed curve so far *)
  let order = ref [] in
  let curves : (string, int ref * (int * int) list ref) Hashtbl.t =
    Hashtbl.create 4
  in
  let slot algo =
    match Hashtbl.find_opt curves algo with
    | Some s -> s
    | None ->
      let s = (ref 0, ref []) in
      Hashtbl.add curves algo s;
      order := algo :: !order;
      s
  in
  List.iter
    (fun (e : Trace.event) ->
      match e.kind with
      | Trace.Span_begin -> (
        match iteration_algo e.name with
        | None -> ()
        | Some algo -> (
          let index, _ = slot algo in
          match List.assoc_opt "index" e.args with
          | Some (Trace.Int i) -> index := i
          | _ -> incr index))
      | Trace.Instant when e.name = "iteration outcome" -> (
        match
          (List.assoc_opt "algo" e.args, List.assoc_opt "remaining" e.args)
        with
        | Some (Trace.Str algo), Some (Trace.Int remaining)
          when remaining >= 0 ->
          let index, curve = slot algo in
          curve := (!index, remaining) :: !curve
        | _ -> ())
      | _ -> ())
    events;
  List.rev !order
  |> List.filter_map (fun algo ->
         let _, curve = Hashtbl.find curves algo in
         match List.rev !curve with [] -> None | c -> Some (algo, c))

let quality_to_json q =
  Json.Obj
    [
      ("weight", Json.Int q.weight);
      ("edge_count", Json.Int q.edge_count);
      ("lower_bound", Json.Int q.lower_bound);
      ("greedy_weight", Json.Int q.greedy_weight);
      ("ratio", Json.Float q.ratio);
      ("verified", Json.Bool q.verified);
      ("connectivity", Json.Int q.connectivity);
    ]

let by_category_to_json cats =
  Json.Obj (List.map (fun (c, v) -> (c, Json.Int v)) cats)

let cost_to_json c =
  Json.Obj
    [
      ("rounds", Json.Int c.rounds);
      ("messages", Json.Int c.messages);
      ("rounds_by_category", by_category_to_json c.rounds_by_category);
      ("messages_by_category", by_category_to_json c.messages_by_category);
      ("engine", Metrics.summary_to_json c.engine);
    ]

let coverage_to_json coverage =
  Json.Obj
    (List.map
       (fun (algo, curve) ->
         ( algo,
           Json.List
             (List.map
                (fun (i, r) -> Json.List [ Json.Int i; Json.Int r ])
                curve) ))
       coverage)

let to_json t =
  Json.Obj
    [
      ("schema", Json.Str schema_version);
      ("algo", Json.Str t.algo);
      ("k", Json.Int t.k);
      ("n", Json.Int t.n);
      ("m", Json.Int t.m);
      ("seed", Json.Int t.seed);
      ("quality", quality_to_json t.quality);
      ("cost", cost_to_json t.cost);
      ("coverage", coverage_to_json t.coverage);
      ("violations", Monitor.violations_to_json t.violations);
    ]

let pp ppf t =
  Format.fprintf ppf "@[<v>audit: %s k=%d on n=%d m=%d (seed %d)@,@," t.algo
    t.k t.n t.m t.seed;
  Export.table ppf ~title:"solution quality" ~columns:[ "metric"; "value" ]
    [
      [ Export.S "weight"; Export.I t.quality.weight ];
      [ Export.S "edges"; Export.I t.quality.edge_count ];
      [ Export.S "lower bound"; Export.I t.quality.lower_bound ];
      [ Export.S "greedy weight"; Export.I t.quality.greedy_weight ];
      [ Export.S "ratio (weight / lb)"; Export.F t.quality.ratio ];
      [ Export.S "verified"; Export.S (string_of_bool t.quality.verified) ];
      [ Export.S "connectivity"; Export.I t.quality.connectivity ];
    ];
  Format.fprintf ppf "@,";
  let budget_rows =
    List.map
      (fun (cat, r) ->
        let msgs =
          match List.assoc_opt cat t.cost.messages_by_category with
          | Some m -> m
          | None -> 0
        in
        [ Export.S cat; Export.I r; Export.I msgs ])
      t.cost.rounds_by_category
  in
  Export.table ppf ~title:"round budget"
    ~columns:[ "category"; "rounds"; "messages" ]
    (budget_rows
    @ [ [ Export.S "total"; Export.I t.cost.rounds; Export.I t.cost.messages ] ]
    );
  Format.fprintf ppf "@,";
  (match t.coverage with
  | [] -> Format.fprintf ppf "coverage: no per-iteration curve recorded@,"
  | curves ->
    Export.table ppf ~title:"cut coverage"
      ~columns:[ "algorithm"; "iterations"; "start"; "end" ]
      (List.map
         (fun (algo, curve) ->
           let first = snd (List.hd curve) in
           let last = snd (List.nth curve (List.length curve - 1)) in
           [
             Export.S algo;
             Export.I (List.length curve);
             Export.I first;
             Export.I last;
           ])
         curves));
  Format.fprintf ppf "@,";
  (match t.violations with
  | [] -> Format.fprintf ppf "monitor: no invariant violations"
  | vs ->
    Format.fprintf ppf "@[<v>monitor: %d invariant violation%s:"
      (List.length vs)
      (if List.length vs = 1 then "" else "s");
    List.iter
      (fun v -> Format.fprintf ppf "@,  %a" Monitor.pp_violation v)
      vs;
    Format.fprintf ppf "@]");
  Format.fprintf ppf "@]"
