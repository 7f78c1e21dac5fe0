(* What a run reports: the metric declarations (the same names and units
   BENCHMARK.json declares — the smoke test checks the two agree), the
   result record and its JSON forms. *)

module Json = Kecss_obs.Json

let end_to_end =
  [
    ("setup_s", "s");
    ("op_cal", "cal");
    ("alloc_words_per_op", "words/op");
    ("weight_ratio", "ratio");
    ("peak_heap_mb", "MB");
  ]

(* the categories Prim charges engine runs to *)
let primitives =
  [
    "bfs"; "exchange"; "wave_up"; "wave_down"; "down_pipeline"; "up_pipeline";
    "edge_stream"; "walk_up";
  ]

(* the primitives the congest probe runs directly on a workload graph *)
let probes = [ "bfs"; "exchange"; "wave_up"; "wave_down"; "edge_stream" ]

(* top-level and nested Prof spans whose share of the traced solve is
   reported; "other" is the solve time no top-level span covers *)
let phases = [ "mst"; "segments"; "tap"; "augk"; "ecss2u"; "ecss3"; "labels" ]

let per_layer =
  [
    ("env.calib_ms", "ms");
    ("gen.s", "s");
    ("io.encode_s", "s");
    ("io.decode_s", "s");
    ("io.decode_mb_per_s", "MB/s");
    ("io.decode_words", "words");
    ("solve.s", "s");
    ("solve.words", "words");
    ("verify.s", "s");
    ("verify.words", "words");
    ("op.p50_ms", "ms");
    ("op.p90_ms", "ms");
    ("op.p99_ms", "ms");
    ("op.samples", "count");
  ]
  @ List.map (fun p -> ("solve." ^ p ^ "_share", "fraction")) phases
  @ [
      ("solve.other_share", "fraction");
      ("congest.rounds", "count");
      ("congest.messages", "count");
      ("congest.runs", "count");
      ("congest.analytic_rounds", "count");
      ("congest.mean_active", "vertices");
      ("congest.words_per_msg", "words/msg");
    ]
  @ List.concat_map
      (fun p ->
        [
          ("congest." ^ p ^ ".rounds", "count");
          ("congest." ^ p ^ ".messages", "count");
        ])
      primitives
  @ List.concat_map
      (fun p ->
        [
          ("congest.probe." ^ p ^ ".ns_per_msg", "ns/msg");
          ("congest.probe." ^ p ^ ".words_per_msg", "words/msg");
        ])
      probes
  @ [
      ("tap.iterations", "count");
      ("tap.candidates_per_added", "ratio");
      ("augk.iterations", "count");
      ("ecss3.iterations", "count");
      ("ecss3.repaired", "count");
      ("mincut.ns_per_trial_edge", "ns");
      ("mincut.cuts", "count");
      ("serve.requests", "count");
      ("serve.req_per_s", "1/s");
      ("serve.wait_share", "fraction");
      ("serve.update_share", "fraction");
      ("serve.verify_share", "fraction");
      ("serve.stats_share", "fraction");
      ("serve.slo_miss_frac", "fraction");
      ("serve.gen_late_frac", "fraction");
      ("maint.cascade_ops_per_update", "count");
      ("maint.replacement_frac", "fraction");
      ("maint.repairs", "count");
      ("maint.rebuilds", "count");
      ("maint.degraded", "count");
      ("gc.minor_collections", "count");
      ("gc.major_collections", "count");
      ("gc.promoted_words", "words");
      ("obs.trace_overhead_frac", "fraction");
      ("obs.identity_err", "fraction");
    ]

(* metrics a fixed seed must reproduce exactly *)
let deterministic =
  [
    "weight_ratio"; "congest.rounds"; "congest.messages"; "congest.runs";
    "congest.analytic_rounds"; "tap.iterations"; "augk.iterations";
    "ecss3.iterations";
  ]

let unit_of name =
  match List.assoc_opt name end_to_end with
  | Some u -> Some u
  | None -> List.assoc_opt name per_layer

type run = {
  workload : string;
  seed : int;
  trace : bool;
  attempted : int;
  failed : int;
  correct : bool;
  metrics : (string * float) list;
}

(* every declared metric of the reported kind, in declaration order;
   a workload that leaves one out is a harness bug, not a zero *)
let reported r =
  let decls = if r.trace then end_to_end @ per_layer else end_to_end in
  List.map
    (fun (name, _) ->
      match List.assoc_opt name r.metrics with
      | Some v -> (name, v)
      | None ->
        failwith (Printf.sprintf "%s: metric %s was not measured" r.workload name))
    decls

let metric_json (name, v) =
  (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.Str (Option.get (unit_of name))) ])

(* the measured metrics among [decls], as JSON, in declaration order *)
let metrics_json decls metrics =
  Json.Obj
    (List.filter_map
       (fun (name, _) ->
         Option.map (fun v -> metric_json (name, v)) (List.assoc_opt name metrics))
       decls)

(* the result line, last on standard output: end-to-end metrics untraced,
   per-layer metrics traced *)
let final_line ~trace ~correct ~attempted ~failed metrics =
  let kind = if trace then per_layer else end_to_end in
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool correct);
         ("attempted", Json.Int attempted);
         ("failed", Json.Int failed);
         ("metrics", metrics_json kind metrics);
       ])

let run_json r =
  Json.Obj
    [
      ("workload", Json.Str r.workload);
      ("seed", Json.Int r.seed);
      ("trace", Json.Bool r.trace);
      ("correct", Json.Bool r.correct);
      ("attempted", Json.Int r.attempted);
      ("failed", Json.Int r.failed);
      ("metrics", metrics_json (end_to_end @ per_layer) r.metrics);
    ]

let run_of_json j =
  let get key conv = Option.bind (Json.member key j) conv in
  let bool = function Json.Bool b -> Some b | _ -> None in
  match
    ( get "workload" Json.to_string_opt,
      get "seed" Json.to_int_opt,
      get "trace" bool,
      get "correct" bool,
      get "attempted" Json.to_int_opt,
      get "failed" Json.to_int_opt,
      Json.member "metrics" j )
  with
  | ( Some workload, Some seed, Some trace, Some correct, Some attempted,
      Some failed, Some (Json.Obj ms) ) ->
    let metrics =
      List.filter_map
        (fun (name, v) ->
          Option.map (fun x -> (name, x))
            (Option.bind (Json.member "value" v) Json.to_float_opt))
        ms
    in
    Ok { workload; seed; trace; attempted; failed; correct; metrics }
  | _ -> Error "a run lacks workload/seed/trace/correct/attempted/failed/metrics"

(* the commit of the checkout when it is a git repository itself; [GIT_DIR]
   keeps git from looking in the directories above it *)
let rev () =
  let ic = Unix.open_process_in "GIT_DIR=.git git rev-parse --short=12 HEAD 2>/dev/null" in
  let line = try String.trim (input_line ic) with End_of_file -> "" in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 when line <> "" -> line
  | _ -> "unknown"

let env_json () =
  Json.Obj
    [
      ("rev", Json.Str (rev ()));
      ("nproc", Json.Int (Domain.recommended_domain_count ()));
      ("jobs", Json.Int (Kecss_par.Pool.default_jobs ()));
      ("par_threshold", Json.Int (Kecss_congest.Network.par_threshold ()));
      ("ocaml", Json.Str Sys.ocaml_version);
    ]

let schema = "kecss-e2e/1"

let write_results path runs =
  let doc =
    Json.Obj
      [
        ("schema", Json.Str schema);
        ("env", env_json ());
        ("runs", Json.List (List.map run_json runs));
      ]
  in
  let oc = open_out path in
  output_string oc (Json.to_string doc);
  output_char oc '\n';
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let read_results path =
  match Json.parse (read_file path) with
  | Error e -> Error (Printf.sprintf "%s: %s" path e)
  | Ok doc -> (
    match Json.member "runs" doc with
    | Some (Json.List rs) ->
      List.fold_right
        (fun r acc ->
          match (acc, run_of_json r) with
          | Ok l, Ok x -> Ok (x :: l)
          | (Error _ as e), _ -> e
          | _, Error e -> Error (Printf.sprintf "%s: %s" path e))
        rs (Ok [])
    | _ -> Error (Printf.sprintf "%s: no runs list" path))
