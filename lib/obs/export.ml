type cell = S of string | I of int | F of float

let cell_to_string = function
  | S s -> s
  | I i -> string_of_int i
  | F f -> Printf.sprintf "%.3f" f

let table ppf ~title ~columns rows =
  let rows = List.map (List.map cell_to_string) rows in
  let widths =
    List.mapi
      (fun i col ->
        List.fold_left
          (fun acc row -> max acc (String.length (List.nth row i)))
          (String.length col) rows)
      columns
  in
  Format.fprintf ppf "@[<v>== %s ==@," title;
  let emit row =
    List.iteri
      (fun i s -> Format.fprintf ppf " %*s " (List.nth widths i) s)
      row;
    Format.fprintf ppf "@,"
  in
  emit columns;
  List.iter (fun w -> Format.pp_print_string ppf (String.make (w + 2) '-')) widths;
  Format.fprintf ppf "@,";
  List.iter emit rows;
  Format.fprintf ppf "@]"

(* ----- JSON event encodings ----- *)

let value_to_json = function
  | Trace.Int i -> Json.Int i
  | Trace.Float f -> Json.Float f
  | Trace.Str s -> Json.Str s
  | Trace.Bool b -> Json.Bool b

let args_to_json args =
  Json.Obj (List.map (fun (k, v) -> (k, value_to_json v)) args)

let kind_tag = function
  | Trace.Span_begin -> "B"
  | Trace.Span_end -> "E"
  | Trace.Instant -> "i"
  | Trace.Counter -> "C"

let jsonl t =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (e : Trace.event) ->
      Json.to_buffer buf
        (Json.Obj
           [
             ("ts", Json.Float e.ts);
             ("ph", Json.Str (kind_tag e.kind));
             ("name", Json.Str e.name);
             ("args", args_to_json e.args);
           ]);
      Buffer.add_char buf '\n')
    (Trace.events t);
  Buffer.contents buf

let chrome t =
  let event (e : Trace.event) =
    let base =
      [
        ("name", Json.Str e.name);
        ("ph", Json.Str (kind_tag e.kind));
        ("ts", Json.Float e.ts);
        ("pid", Json.Int 1);
        ("tid", Json.Int 1);
      ]
    in
    let extra =
      match e.kind with
      | Trace.Instant -> [ ("s", Json.Str "t") ]
      | _ -> []
    in
    Json.Obj (base @ extra @ [ ("args", args_to_json e.args) ])
  in
  Json.to_string
    (Json.Obj
       [
         ("traceEvents", Json.List (List.map event (Trace.events t)));
         ("displayTimeUnit", Json.Str "ms");
         ( "otherData",
           Json.Obj
             [ ("timeline_unit", Json.Str "1 simulated CONGEST round = 1us") ] );
       ])

let chrome_to_file t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (chrome t))

(* ----- profiling reports ----- *)

let ms ns = ns /. 1e6
let kwords w = w /. 1e3

let prof_table ppf p =
  match Prof.stats p with
  | [] -> ()
  | stats ->
    table ppf ~title:"wall-clock profile (ms; GC in kwords)"
      ~columns:
        [
          "span"; "calls"; "total"; "max"; "p50"; "p90"; "p99"; "minor";
          "major"; "gcs";
        ]
      (List.map
         (fun (s : Prof.stat) ->
           [
             S s.name;
             I s.calls;
             F (ms s.total_ns);
             F (ms s.max_ns);
             F (ms (Prof.Hist.p50 s.hist));
             F (ms (Prof.Hist.p90 s.hist));
             F (ms (Prof.Hist.p99 s.hist));
             F (kwords s.gc.minor_words);
             F (kwords s.gc.major_words);
             I (s.gc.minor_collections + s.gc.major_collections);
           ])
         stats)

let pool_table ppf ~jobs ~lifetime_ns stats =
  let rows =
    List.mapi
      (fun i (busy_ns, tasks) ->
        let share =
          if lifetime_ns > 0.0 then 100.0 *. busy_ns /. lifetime_ns else 0.0
        in
        [
          S (if i = 0 then "0 (submitter)" else string_of_int i);
          I tasks;
          F (ms busy_ns);
          F (ms (Float.max 0.0 (lifetime_ns -. busy_ns)));
          F share;
        ])
      (Array.to_list stats)
  in
  table ppf
    ~title:(Printf.sprintf "pool utilization (%d domains)" jobs)
    ~columns:[ "domain"; "tasks"; "busy ms"; "idle ms"; "busy %" ]
    rows

let latency_table ppf ~title rows =
  match List.filter (fun (_, h) -> Prof.Hist.count h > 0) rows with
  | [] -> ()
  | rows ->
    table ppf ~title
      ~columns:[ "kind"; "reqs"; "total ms"; "p50 ms"; "p99 ms"; "max ms" ]
      (List.map
         (fun (kind, h) ->
           [
             S kind;
             I (Prof.Hist.count h);
             F (ms (Prof.Hist.total_ns h));
             F (ms (Prof.Hist.p50 h));
             F (ms (Prof.Hist.p99 h));
             F (ms (Prof.Hist.max_ns h));
           ])
         rows)

let pool_to_json ~jobs ~lifetime_ns stats =
  Json.Obj
    [
      ("jobs", Json.Int jobs);
      ("lifetime_ns", Json.Float lifetime_ns);
      ( "domains",
        Json.List
          (List.mapi
             (fun i (busy_ns, tasks) ->
               Json.Obj
                 [
                   ("domain", Json.Int i);
                   ("tasks", Json.Int tasks);
                   ("busy_ns", Json.Float busy_ns);
                 ])
             (Array.to_list stats)) );
    ]

(* ----- causal reports ----- *)

(* [--phase NAME] keeps a phase and its sub-phases *)
let phase_matches filter name =
  match filter with
  | None -> true
  | Some p ->
    String.equal name p
    || (String.length name > String.length p
       && String.sub name 0 (String.length p + 1) = p ^ "/")

(* join the ledger's charged per-category breakdown with the causal
   recorder's engine-round attribution: rows are the union of names, so
   the rounds column still sums to the ledger total while synthetic
   charges (categories with no engine run behind them) show up with no
   causal data rather than vanishing *)
let causal_phase_rows ?phase ~rounds_by_category ~messages_by_category
    (r : Causal.report) =
  let names = Hashtbl.create 16 in
  List.iter (fun (c, _) -> Hashtbl.replace names c ()) rounds_by_category;
  List.iter (fun (c, _) -> Hashtbl.replace names c ()) messages_by_category;
  List.iter
    (fun (row : Causal.phase_row) -> Hashtbl.replace names row.ph_name ())
    r.Causal.rp_phases;
  let get assoc name = Option.value ~default:0 (List.assoc_opt name assoc) in
  let causal_row name =
    List.find_opt
      (fun (row : Causal.phase_row) -> String.equal row.ph_name name)
      r.Causal.rp_phases
  in
  Hashtbl.fold (fun name () acc -> name :: acc) names []
  |> List.filter (phase_matches phase)
  |> List.sort String.compare
  |> List.map (fun name ->
         let engine, crit =
           match causal_row name with
           | Some row -> (row.Causal.ph_rounds, row.Causal.ph_crit)
           | None -> (0, 0)
         in
         ( name,
           get rounds_by_category name,
           get messages_by_category name,
           engine,
           crit ))

let causal_tables ppf ?top ?phase ~total_rounds ~total_messages
    ~rounds_by_category ~messages_by_category (r : Causal.report) =
  let top = match top with Some t -> max 1 t | None -> 10 in
  table ppf ~title:"causal summary" ~columns:[ "metric"; "value" ]
    [
      [ S "total rounds (ledger)"; I total_rounds ];
      [ S "total messages (ledger)"; I total_messages ];
      [ S "engine rounds traced"; I r.Causal.rp_rounds ];
      [ S "engine messages traced"; I r.Causal.rp_messages ];
      [ S "engine runs"; I r.Causal.rp_runs ];
      [ S "longest dependency chain"; I r.Causal.rp_critical ];
      [ S "critical rounds (sum/run)"; I r.Causal.rp_critical_rounds ];
      [ S "zero-slack senders"; I r.Causal.rp_zero_slack ];
    ];
  Format.fprintf ppf "@,";
  table ppf ~title:"per-phase round attribution"
    ~columns:[ "phase"; "rounds"; "messages"; "engine"; "crit hops" ]
    (List.map
       (fun (name, rounds, messages, engine, crit) ->
         [ S name; I rounds; I messages; I engine; I crit ])
       (causal_phase_rows ?phase ~rounds_by_category ~messages_by_category r));
  (match r.Causal.rp_chains with
  | [] -> ()
  | chains ->
    Format.fprintf ppf "@,";
    table ppf ~title:"longest dependency chains"
      ~columns:[ "len"; "vertex"; "edge"; "rounds"; "phase" ]
      (List.filter
         (fun (c : Causal.chain) -> phase_matches phase c.Causal.ch_phase)
         chains
      |> List.filteri (fun i _ -> i < top)
      |> List.map (fun (c : Causal.chain) ->
             [
               I c.Causal.ch_len;
               I c.Causal.ch_vertex;
               I c.Causal.ch_edge;
               S (Printf.sprintf "%d..%d" c.Causal.ch_first c.Causal.ch_last);
               S c.Causal.ch_phase;
             ])));
  match r.Causal.rp_slack with
  | [] -> ()
  | slack ->
    Format.fprintf ppf "@,";
    table ppf ~title:"tightest senders (slack)"
      ~columns:[ "vertex"; "slack"; "messages" ]
      (List.filteri (fun i _ -> i < top) slack
      |> List.map (fun (s : Causal.slack_row) ->
             [ I s.Causal.sl_vertex; I s.Causal.sl_slack; I s.Causal.sl_messages ]))

let causal_to_json ?top ?phase ?(extra = []) ~total_rounds ~total_messages
    ~rounds_by_category ~messages_by_category (r : Causal.report) =
  let top = match top with Some t -> max 1 t | None -> 10 in
  Json.Obj
    (("schema", Json.Str "kecss-causal/1")
     :: extra
    @ [
        ("total_rounds", Json.Int total_rounds);
        ("total_messages", Json.Int total_messages);
        ( "engine",
          Json.Obj
            [
              ("rounds", Json.Int r.Causal.rp_rounds);
              ("messages", Json.Int r.Causal.rp_messages);
              ("runs", Json.Int r.Causal.rp_runs);
            ] );
        ( "critical",
          Json.Obj
            [
              ("longest_chain", Json.Int r.Causal.rp_critical);
              ("critical_rounds", Json.Int r.Causal.rp_critical_rounds);
            ] );
        ( "phases",
          Json.List
            (List.map
               (fun (name, rounds, messages, engine, crit) ->
                 Json.Obj
                   [
                     ("phase", Json.Str name);
                     ("rounds", Json.Int rounds);
                     ("messages", Json.Int messages);
                     ("engine_rounds", Json.Int engine);
                     ("critical_hops", Json.Int crit);
                   ])
               (causal_phase_rows ?phase ~rounds_by_category
                  ~messages_by_category r)) );
        ( "chains",
          Json.List
            (List.filter
               (fun (c : Causal.chain) ->
                 phase_matches phase c.Causal.ch_phase)
               r.Causal.rp_chains
            |> List.filteri (fun i _ -> i < top)
            |> List.map (fun (c : Causal.chain) ->
                   Json.Obj
                     [
                       ("length", Json.Int c.Causal.ch_len);
                       ("vertex", Json.Int c.Causal.ch_vertex);
                       ("edge", Json.Int c.Causal.ch_edge);
                       ("first_round", Json.Int c.Causal.ch_first);
                       ("last_round", Json.Int c.Causal.ch_last);
                       ("phase", Json.Str c.Causal.ch_phase);
                     ])) );
        ( "slack",
          Json.Obj
            [
              ("zero_slack_senders", Json.Int r.Causal.rp_zero_slack);
              ( "tightest",
                Json.List
                  (List.filteri (fun i _ -> i < top) r.Causal.rp_slack
                  |> List.map (fun (s : Causal.slack_row) ->
                         Json.Obj
                           [
                             ("vertex", Json.Int s.Causal.sl_vertex);
                             ("slack", Json.Int s.Causal.sl_slack);
                             ("messages", Json.Int s.Causal.sl_messages);
                           ])) );
            ] );
      ])

let metrics_table ppf m =
  let s = Metrics.summary m in
  table ppf ~title:"CONGEST engine metrics" ~columns:[ "metric"; "value" ]
    [
      [ S "counted rounds observed"; I s.Metrics.rounds ];
      [ S "engine runs"; I s.Metrics.runs ];
      [ S "messages"; I s.Metrics.messages ];
      [ S "peak messages/round"; I s.Metrics.peak_round_messages ];
      [ S "mean messages/round"; F s.Metrics.mean_round_messages ];
      [ S "peak active vertices"; I s.Metrics.peak_active ];
      [ S "mean active vertices"; F s.Metrics.mean_active ];
      [ S "hottest edge id"; I s.Metrics.hottest_edge ];
      [ S "hottest edge messages"; I s.Metrics.hottest_edge_messages ];
    ]
