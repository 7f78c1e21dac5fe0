(* kecss — command line front end.

   Subcommands:
     generate    write a workload graph to stdout/file
     convert     translate a graph between the text and binary formats
     solve       run one of the paper's algorithms on a graph file
     explain     causal critical-path attribution of a run's rounds
     verify      check that an edge set is a k-ECSS of a graph
     audit       solve + verify + baselines + invariant monitor, as one record
     resilience  solve, then attack the solution with ≤ k−1 edge failures
     experiment  run experiments from the reproduction suite
     info        print structural facts about a graph

   solve and experiment additionally accept --faults PLAN, which injects
   adversarial engine faults (message drops/delays/duplications, vertex
   crash-stops, edge failures) into every CONGEST execution of the run. *)

open Cmdliner
open Kecss_graph
open Kecss_connectivity
open Kecss_core
module Sparsify = Kecss_sparsify.Sparsify

(* ------------------------------------------------------------------ *)
(* shared arguments                                                    *)
(* ------------------------------------------------------------------ *)

(* The one loader of graph and solution files. Both wire formats are
   accepted everywhere: [Io.load] sniffs the magic on files, and stdin is
   buffered whole and sniffed. An unreadable file and a malformed one are
   both a named error; [what] names the file's role in the first. *)
let read_kecss ~what path =
  let load = function
    | "-" ->
      let buf = Buffer.create 65536 in
      let chunk = Bytes.create 65536 in
      let rec slurp () =
        let r = input stdin chunk 0 (Bytes.length chunk) in
        if r > 0 then begin
          Buffer.add_subbytes buf chunk 0 r;
          slurp ()
        end
      in
      (try slurp () with End_of_file -> ());
      let s = Buffer.contents buf in
      if Io.is_binary_magic s then Io.of_binary_string s else Io.of_string s
    | path -> Io.load path
  in
  match load path with
  | g -> Ok g
  | exception Sys_error msg ->
    Error (Printf.sprintf "cannot read %s: %s" what msg)
  | exception Failure msg -> Error msg

let read_graph = read_kecss ~what:"graph"

(* The one writer of output files: [contents] goes to [path], or to
   stdout for "-". A failure is the named error "cannot write WHAT: ...". *)
let write_file ~what path contents =
  match
    if path = "-" then print_string contents
    else begin
      let oc = open_out_bin path in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () ->
          output_string oc contents;
          close_out oc)
    end
  with
  | () -> Ok ()
  | exception Sys_error msg -> Error (Printf.sprintf "cannot write %s: %s" what msg)

(* a JSON document, one line *)
let write_json ~what path doc =
  write_file ~what path (Kecss_obs.Json.to_string doc ^ "\n")

let ret_of_result = function Ok () -> `Ok () | Error msg -> `Error (false, msg)

(* a solution file's edges re-identified as edge ids of [g] *)
let read_solution g path =
  match read_kecss ~what:"solution" path with
  | Error _ as e -> e
  | Ok sol ->
    let mask = Graph.no_edges_mask g in
    let missing = ref 0 in
    Graph.iter_edges
      (fun e ->
        match Graph.find_edge g e.Graph.u e.Graph.v with
        | Some id -> Bitset.add mask id
        | None -> incr missing)
      sol;
    if !missing > 0 then
      Error (Printf.sprintf "%d solution edges are not in the graph" !missing)
    else Ok mask

let graph_arg =
  let doc = "Input graph file (kecss format; - for stdin)." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"GRAPH" ~doc)

let seed_arg =
  let doc = "Random seed for all algorithm randomness." in
  Arg.(value & opt int 1 & info [ "seed" ] ~doc)

let k_arg =
  let doc = "Target edge connectivity k." in
  Arg.(value & opt int 2 & info [ "k" ] ~doc)

let jobs_arg =
  let doc =
    "Worker domains for the parallel execution layer. Defaults to the \
     KECSS_JOBS environment variable, then the machine's recommended \
     domain count. Every result is bit-identical at every value; \
     $(docv) = 1 disables parallelism entirely."
  in
  Arg.(value & opt (some int) None & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let apply_jobs = function
  | None -> Ok ()
  | Some j when j >= 1 ->
    Kecss_par.Pool.set_default_jobs j;
    Ok ()
  | Some _ -> Error "--jobs must be >= 1"

let sparsify_arg =
  let doc =
    "Sparsify the input before solving: keep its sparse certificate, k \
     edge-disjoint lex-min (weight, id) spanning forests (≤ k(n−1) edges). \
     The final solution is lifted back to, and verified against, the \
     original graph."
  in
  Arg.(value & flag & info [ "sparsify" ] ~doc)

(* the connectivity the chosen algorithm actually targets, needed before
   the solver runs so the sparsifier preserves the right k *)
let algo_k ~algo ~k =
  match algo with
  | "2ecss" | "2ecss-unweighted" -> 2
  | "3ecss-unweighted" | "3ecss-weighted" -> 3
  | "ftmst" -> 1
  | _ -> k

let report_sparsify ppf sp =
  Format.fprintf ppf "sparsify(cert): edges %d -> %d (%.1f%% retained), rounds %d@."
    sp.Sparsify.edges_in sp.Sparsify.edges_out
    (100.0
    *. float_of_int sp.Sparsify.edges_out
    /. float_of_int (max 1 sp.Sparsify.edges_in))
    sp.Sparsify.rounds

(* ------------------------------------------------------------------ *)
(* telemetry plumbing                                                  *)
(* ------------------------------------------------------------------ *)

let trace_arg =
  let doc =
    "Write a Chrome trace_event telemetry trace to $(docv) (- for \
     stdout): algorithm phases as spans on a simulated-round timeline, \
     plus messages/round and active-vertex counter tracks. Open in \
     chrome://tracing or ui.perfetto.dev."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let metrics_arg =
  let doc =
    "Collect round-level engine metrics and print a summary table and the \
     per-category round ledger on stderr."
  in
  Arg.(value & flag & info [ "metrics" ] ~doc)

let monitor_arg =
  let doc =
    "Check the run against the paper's invariants online (coverage \
     monotonicity, the TAP vote threshold, cost-effectiveness rounding, \
     the probability-doubling schedule, iteration bounds) and print the \
     monitor report on stderr. $(docv) is $(b,warn) (the default) or \
     $(b,strict); in strict mode any violation makes the command exit \
     non-zero."
  in
  let mode = Arg.enum [ ("warn", `Warn); ("strict", `Strict) ] in
  Arg.(
    value
    & opt ~vopt:(Some `Warn) (some mode) None
    & info [ "monitor" ] ~docv:"MODE" ~doc)

let trace_jsonl_arg =
  let doc =
    "Also export the telemetry event stream as newline-delimited JSON, one \
     event per line, to $(docv) (- for stdout) — the byte-stable stream \
     CI diffs across --jobs values. Implies trace collection like \
     $(b,--trace)."
  in
  Arg.(value & opt (some string) None & info [ "trace-jsonl" ] ~docv:"FILE" ~doc)

let profile_arg =
  let doc =
    "Profile where the implementation spends the hardware: per-phase \
     wall-clock spans (total/max and p50/p90/p99), Gc.quick_stat deltas \
     (minor/major words, collections) and the per-domain pool utilization \
     table, printed on stderr. With $(docv), also write the profile as a \
     JSON document to $(docv) (- for stdout). Wall-clock time is measured \
     strictly outside the simulated round clock: results and telemetry stay \
     bit-identical with profiling on, but the profile numbers themselves \
     vary run to run."
  in
  Arg.(
    value
    & opt ~vopt:(Some "") (some string) None
    & info [ "profile" ] ~docv:"FILE" ~doc)

let pool_stat_pairs pool =
  Array.map
    (fun (s : Kecss_par.Pool.stat) ->
      (s.Kecss_par.Pool.busy_ns, s.Kecss_par.Pool.tasks))
    (Kecss_par.Pool.stats pool)

(* the --profile report: span table + pool utilization on stderr, plus the
   JSON artifact when a file was given *)
let report_profile profile prof =
  match profile with
  | None -> Ok ()
  | Some file -> (
    let pool = Kecss_par.Pool.default () in
    let jobs = Kecss_par.Pool.jobs pool in
    let lifetime_ns = Kecss_par.Pool.lifetime_ns pool in
    let stats = pool_stat_pairs pool in
    Format.eprintf "%a@." Kecss_obs.Export.prof_table prof;
    Format.eprintf "%a@."
      (fun ppf () -> Kecss_obs.Export.pool_table ppf ~jobs ~lifetime_ns stats)
      ();
    if file = "" then Ok ()
    else
      let doc =
        Kecss_obs.Json.Obj
          [
            ("schema", Kecss_obs.Json.Str "kecss-profile/1");
            ("spans", Kecss_obs.Prof.to_json prof);
            ("pool", Kecss_obs.Export.pool_to_json ~jobs ~lifetime_ns stats);
          ]
      in
      Result.map
        (fun () -> Format.eprintf "profile -> %s@." file)
        (write_json ~what:"profile" file doc))

(* ------------------------------------------------------------------ *)
(* fault-plan plumbing                                                 *)
(* ------------------------------------------------------------------ *)

let faults_arg =
  let doc =
    "Inject adversarial engine faults during the run, described by the \
     compact plan $(docv), e.g. \
     $(b,drop=0.05,delay=0.1:3,dup=0.02,crash=v17@r40,cut=e3@r0,seed=7): \
     per-message Bernoulli drops/delays/duplications plus scheduled vertex \
     crash-stops and edge failures, all derived deterministically from the \
     plan's seed. Injections are recorded as 'fault injected' trace events \
     and the invariant monitor attributes any downstream anomaly to them."
  in
  Arg.(value & opt (some string) None & info [ "faults" ] ~docv:"PLAN" ~doc)

let parse_faults = function
  | None -> Ok None
  | Some spec -> (
    match Kecss_faults.Plan.of_spec spec with
    | Ok plan -> Ok (Some plan)
    | Error msg -> Error ("bad fault plan: " ^ msg))

let report_faults = function
  | None -> ()
  | Some inj ->
    Format.eprintf "faults: %a over %d engine rounds@."
      Kecss_faults.Net.pp_stats
      (Kecss_faults.Net.stats inj)
      (Kecss_faults.Net.rounds_seen inj)

let stalled_error ~faulted ~report ~rounds ~active ~in_flight =
  Format.eprintf
    "stalled: no quiescence after %d engine rounds (%d vertices active, %d \
     messages in flight)@."
    rounds active in_flight;
  report ();
  Printf.sprintf "solver stalled%s (rounds=%d active=%d in_flight=%d)"
    (if faulted then " under the fault plan" else "")
    rounds active in_flight

(* ------------------------------------------------------------------ *)
(* causal / flight plumbing                                            *)
(* ------------------------------------------------------------------ *)

let causal_arg =
  let doc =
    "Record the causal message graph (per-message dependency ids inside \
     every engine run) and print critical-path attribution on stderr after \
     the run: per-phase round attribution joined with the round ledger, \
     the longest message dependency chains and the tightest (zero-slack) \
     senders. Recording is confined to the engine's sequential passes, so \
     the report is byte-identical at every --jobs."
  in
  Arg.(value & flag & info [ "causal" ] ~doc)

let top_arg =
  let doc =
    "Bound the dependency-chain and slack tables (and the corresponding \
     JSON lists) to $(docv) rows."
  in
  Arg.(value & opt (some int) None & info [ "top" ] ~docv:"N" ~doc)

let phase_arg =
  let doc =
    "Keep only phase $(docv) and its sub-phases (prefix match on the \
     phase path, e.g. $(b,mst) keeps $(b,mst/wave_up)) in the attribution \
     tables and chain list."
  in
  Arg.(value & opt (some string) None & info [ "phase" ] ~docv:"NAME" ~doc)

let flight_dump_arg =
  let doc =
    "Where to write the flight-recorder dump (kecss-flight/1 JSON; - for \
     stdout). The recorder keeps a bounded per-vertex ring of the last \
     rounds of sends, receives and activation flips whenever a fault plan \
     or --monitor is active, and dumps automatically when the run stalls \
     (no quiescence) or strict-mode invariant violations are found."
  in
  Arg.(
    value
    & opt string "kecss-flight.json"
    & info [ "flight-dump" ] ~docv:"FILE" ~doc)

(* the auto-dump: called from the stall and strict-violation paths; a dump
   failure must not mask the error that triggered it, so it only warns *)
let dump_flight ?stall ~reason ~path flight =
  if Kecss_obs.Flight.enabled flight then begin
    match
      write_json ~what:path path (Kecss_obs.Flight.to_json ?stall ~reason flight)
    with
    | Error msg -> Format.eprintf "flight recorder: %s@." msg
    | Ok () ->
      Format.eprintf "flight recorder: %s after %d engine passes -> %s@."
        reason
        (Kecss_obs.Flight.passes flight)
        path
  end

let report_causal ?top ?phase ppf causal ledger =
  if Kecss_obs.Causal.enabled causal then begin
    let report = Kecss_obs.Causal.analyze causal in
    Kecss_obs.Export.causal_tables ppf ?top ?phase
      ~total_rounds:(Kecss_congest.Rounds.total ledger)
      ~total_messages:(Kecss_congest.Rounds.total_messages ledger)
      ~rounds_by_category:(Kecss_congest.Rounds.by_category ledger)
      ~messages_by_category:(Kecss_congest.Rounds.messages_by_category ledger)
      report
  end

(* ------------------------------------------------------------------ *)
(* the run options `solve` and `experiment` share                      *)
(* ------------------------------------------------------------------ *)

type run = {
  plan : Kecss_faults.Plan.t option;
  probe : Kecss_obs.Probe.t;
  monitor : ([ `Warn | `Strict ] * Kecss_obs.Monitor.t) option;
  trace_path : string option;
  jsonl_path : string option;
  metrics_on : bool;
  profile : string option;
}

(* The eight flags `solve` and `experiment` share, as one term: it applies
   [--jobs], parses the plan and builds the run's one probe.
   [--trace]/[--trace-jsonl] imply metric collection: the
   counter tracks come from the metrics hooks inside the engine.
   [--monitor] needs a recording trace to subscribe to, but not metrics.
   With [~flight], the flight recorder is armed exactly when a post
   mortem could be needed: a fault campaign (stalls) or the monitor
   (strict violations). *)
let run_term ~flight =
  let setup jobs faults trace_path jsonl_path metrics_on
      monitor_mode profile causal_on =
    match apply_jobs jobs with
    | Error msg -> Error msg
    | Ok () ->
    match parse_faults faults with
    | Error msg -> Error msg
    | Ok plan ->
      let open Kecss_obs in
      let want_trace = trace_path <> None || jsonl_path <> None in
      let trace =
        if want_trace || monitor_mode <> None then Trace.create ()
        else Trace.noop
      in
      let monitor =
        Option.map
          (fun mode ->
            let mon = Monitor.create () in
            Monitor.attach mon trace;
            (mode, mon))
          monitor_mode
      in
      let armed = flight && (plan <> None || monitor_mode <> None) in
      let probe =
        Probe.create ~trace
          ~metrics:
            (if metrics_on || want_trace then Metrics.create ~trace ()
             else Metrics.noop)
          ~prof:(if profile <> None then Prof.create () else Prof.noop)
          ~causal:(if causal_on then Causal.create () else Causal.noop)
          ~flight:(if armed then Flight.create () else Flight.noop)
          ()
      in
      Ok
        {
          plan;
          probe;
          monitor;
          trace_path;
          jsonl_path;
          metrics_on;
          profile;
        }
  in
  Term.(
    const setup $ jobs_arg $ faults_arg $ trace_arg
    $ trace_jsonl_arg $ metrics_arg $ monitor_arg $ profile_arg $ causal_arg)

let export run ledger =
  let trace = Kecss_obs.Probe.trace run.probe in
  let events = Kecss_obs.Trace.event_count trace in
  let write path render label =
    match path with
    | None -> Ok ()
    | Some path ->
      Result.map
        (fun () -> Format.eprintf "%s -> %s@." label path)
        (write_file ~what:"trace" path (render trace))
  in
  match
    write run.trace_path Kecss_obs.Export.chrome
      (Printf.sprintf "trace: %d events over %.0f simulated rounds" events
         (Kecss_obs.Trace.now trace))
  with
  | Error _ as e -> e
  | Ok () ->
  match
    write run.jsonl_path Kecss_obs.Export.jsonl
      (Printf.sprintf "trace events (jsonl): %d" events)
  with
  | Error _ as e -> e
  | Ok () ->
    if run.metrics_on then begin
      Format.eprintf "%a@." Kecss_obs.Export.metrics_table
        (Kecss_obs.Probe.metrics run.probe);
      Option.iter (Format.eprintf "%a@." Kecss_congest.Rounds.pp) ledger
    end;
    Ok ()

(* print the monitor report; in strict mode violations become a CLI error
   (and dump the flight recorder to [flight_dump], if given) *)
let monitor_verdict run ~flight_dump =
  match run.monitor with
  | None -> Ok ()
  | Some (mode, mon) ->
    Format.eprintf "%a@." Kecss_obs.Monitor.pp_report mon;
    if mode = `Strict && not (Kecss_obs.Monitor.ok mon) then begin
      Option.iter
        (fun path ->
          dump_flight ~reason:"monitor strict violations" ~path
            (Kecss_obs.Probe.flight run.probe))
        flight_dump;
      Error
        (Printf.sprintf "monitor: %d invariant violation(s) in strict mode"
           (List.length (Kecss_obs.Monitor.violations mon)))
    end
    else Ok ()

(* The finish step of `solve` and `experiment`: the exports, then the
   command's own [report], the profile and the monitor verdict. *)
let finish run ledger ~flight_dump ~report =
  match export run ledger with
  | Error _ as e -> e
  | Ok () -> (
    report ();
    match report_profile run.profile (Kecss_obs.Probe.prof run.probe) with
    | Error _ as e -> e
    | Ok () -> monitor_verdict run ~flight_dump)

(* ------------------------------------------------------------------ *)
(* generate                                                            *)
(* ------------------------------------------------------------------ *)

let generate family n k extra seed wlo whi out =
  let rng = Rng.create ~seed in
  let build () =
    let base =
      match family with
      | "cycle" -> Gen.cycle n
      | "path" -> Gen.path n
      | "complete" -> Gen.complete n
      | "circulant" -> Gen.circulant n (List.init (max 1 (k / 2)) (fun i -> i + 1))
      | "harary" -> Gen.harary k n
      | "torus" ->
        let side = max 3 (int_of_float (Float.round (sqrt (float_of_int n)))) in
        Gen.torus side side
      | "hypercube" ->
        let rec log2 acc v = if v <= 1 then acc else log2 (acc + 1) (v / 2) in
        Gen.hypercube (max 1 (log2 0 n))
      | "random" -> Gen.random_k_connected rng n k ~extra
      | "geometric" -> Gen.random_geometric rng n 0.3
      | "tree" -> Gen.random_tree rng n
      | "figure2" -> Gen.paper_figure2 ()
      | f -> failwith ("unknown family: " ^ f)
    in
    if whi <= wlo && wlo = 1 then base
    else Weights.uniform rng ~lo:wlo ~hi:(max wlo whi) base
  in
  (* an unknown family and a size the family cannot take are named errors *)
  match build () with
  | exception (Failure msg | Invalid_argument msg) -> `Error (false, msg)
  | g -> ret_of_result (write_file ~what:"graph" out (Io.to_string g))

let generate_cmd =
  let family =
    let doc =
      "Graph family: cycle, path, complete, circulant, harary, torus, \
       hypercube, random, geometric, tree, figure2."
    in
    Arg.(value & opt string "random" & info [ "family" ] ~doc)
  in
  let n = Arg.(value & opt int 64 & info [ "n" ] ~doc:"Number of vertices.") in
  let extra =
    Arg.(value & opt int 64 & info [ "extra" ] ~doc:"Extra chords (random).")
  in
  let wlo = Arg.(value & opt int 1 & info [ "wmin" ] ~doc:"Min weight.") in
  let whi = Arg.(value & opt int 1 & info [ "wmax" ] ~doc:"Max weight.") in
  let out =
    Arg.(value & opt string "-" & info [ "o"; "output" ] ~doc:"Output file (- for stdout).")
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate a workload graph.")
    Term.(ret (const generate $ family $ n $ k_arg $ extra $ seed_arg $ wlo $ whi $ out))

(* ------------------------------------------------------------------ *)
(* convert                                                             *)
(* ------------------------------------------------------------------ *)

let convert path out format =
  let to_binary =
    match format with
    | "binary" | "bin" -> Ok true
    | "text" -> Ok false
    | f -> Error (Printf.sprintf "unknown format %S (expected binary or text)" f)
  in
  match to_binary with
  | Error msg -> `Error (false, msg)
  | Ok to_binary -> (
    match read_graph path with
    | Error msg -> `Error (false, msg)
    | Ok g ->
      ret_of_result
        (write_file ~what:"graph" out
           (if to_binary then Io.to_binary_string g else Io.to_string g)))

let convert_cmd =
  let out =
    Arg.(
      value & opt string "-"
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output file (- for stdout).")
  in
  let format =
    let doc =
      "Output format: $(b,binary) (the mmap-friendly kecss-bin/1 codec) or \
       $(b,text) (the line-oriented kecss format). The input's format is \
       sniffed, so either direction round-trips."
    in
    Arg.(value & opt string "binary" & info [ "to"; "format" ] ~docv:"FMT" ~doc)
  in
  Cmd.v
    (Cmd.info "convert"
       ~doc:"Translate a graph between the text and binary formats.")
    Term.(ret (const convert $ graph_arg $ out $ format))

(* ------------------------------------------------------------------ *)
(* solve                                                               *)
(* ------------------------------------------------------------------ *)

let print_solution g mask =
  (* full kecss format, so the output feeds straight into `verify` *)
  Printf.printf "c solution subgraph\np kecss %d %d\n" (Graph.n g)
    (Bitset.cardinal mask);
  Bitset.iter
    (fun e ->
      let u, v = Graph.endpoints g e in
      Printf.printf "e %d %d %d\n" u v (Graph.weight g e))
    mask

(* The exhaustive search is exponential in m. On a 2-vCPU machine, a
   k = 2 search at 24 edges takes 0.03 s, while k = 3 at 34 edges
   (`generate --family random -n 12 -k 3 --extra 10`) takes 2-19 s with
   weights up to 9 and four minutes at unit weights. Beyond this budget
   `exact` refuses before it searches. *)
let exact_max_edges = 24

(* one dispatch shared by `solve`, `explain`, `audit` and `resilience`:
   returns the effective k, the solution mask and the algorithm-reported
   round count (None for the sequential baselines) *)
let run_algo ledger ~algo ~k ~seed g =
  match algo with
  | "2ecss" ->
    let r = Ecss2.solve_with ledger (Rng.create ~seed) g in
    (2, r.Ecss2.solution, Some r.Ecss2.rounds)
  | "2ecss-unweighted" ->
    (* the weight-oblivious solver: minimises edge count, which is what
       the million-vertex scale tier exercises *)
    let r = Ecss2_unweighted.solve_with ledger g in
    (2, r.Ecss2_unweighted.h, Some (Kecss_congest.Rounds.total ledger))
  | "kecss" ->
    let r = Kecss.solve_with ledger (Rng.create ~seed) g ~k in
    (k, r.Kecss.solution, Some r.Kecss.rounds)
  | "3ecss-unweighted" ->
    let r = Ecss3.solve_with ledger (Rng.create ~seed) g in
    (3, r.Ecss3.solution, Some (Kecss_congest.Rounds.total ledger))
  | "3ecss-weighted" ->
    let r = Ecss3.solve_weighted_with ledger (Rng.create ~seed) g in
    (3, r.Ecss3.solution, Some (Kecss_congest.Rounds.total ledger))
  | "ftmst" ->
    let r = Ft_mst.build_with ledger (Rng.create ~seed) g in
    (1, r.Ft_mst.mask, Some r.Ft_mst.rounds)
  | "thurimella" ->
    let r =
      Kecss_baselines.Thurimella.sparse_certificate ~ledger (Rng.create ~seed)
        g ~k
    in
    (k, r.Kecss_baselines.Thurimella.solution, Some r.Kecss_baselines.Thurimella.rounds)
  | "greedy" -> (k, Kecss_baselines.Greedy.kecss g ~k, None)
  | "exact" when Graph.m g > exact_max_edges ->
    failwith
      (Printf.sprintf "exact: %d edges exceed the exhaustive search budget of %d"
         (Graph.m g) exact_max_edges)
  | "exact" -> (
    match Kecss_baselines.Exact.kecss g ~k with
    | Some s -> (k, s, None)
    | None -> failwith "graph is not k-edge-connected")
  | a -> failwith ("unknown algorithm: " ^ a)

(* a solver's refusal (an unknown algorithm, a disconnected graph, k out
   of range, too little connectivity) as a named error *)
let run_algo_named ledger ~algo ~k ~seed g =
  match run_algo ledger ~algo ~k ~seed g with
  | r -> Ok r
  | exception (Failure msg | Invalid_argument msg) -> Error msg

let solve path algo k seed quiet sparsify flight_path run =
  match run with
  | Error msg -> `Error (false, msg)
  | Ok run ->
  match read_graph path with
  | Error msg -> `Error (false, msg)
  | Ok g ->
  (* the injector shared by every engine run of the command; stats go to
     stderr at the end so a degraded result is explainable *)
  let injector =
    Option.map
      (Kecss_faults.Net.injector ~trace:(Kecss_obs.Probe.trace run.probe))
      run.plan
  in
  let ledger =
    Kecss_congest.Rounds.of_probe run.probe
      ~hook:(Option.map Kecss_faults.Net.hook injector)
  in
  (* even when faults kill the run, dump the flight recorder and flush
     telemetry and the monitor report: the point of a fault campaign is to
     inspect exactly these artifacts *)
  let abort ~stall ~reason msg =
    dump_flight ?stall ~reason ~path:flight_path
      (Kecss_obs.Probe.flight run.probe);
    ignore (finish run (Some ledger) ~flight_dump:None ~report:ignore);
    `Error (false, msg)
  in
  let sp =
    if not sparsify then None
    else begin
      let sp = Sparsify.run ~ledger g ~k:(algo_k ~algo ~k) in
      if not quiet then report_sparsify Format.err_formatter sp;
      Some sp
    end
  in
  let target = match sp with Some sp -> sp.Sparsify.sub | None -> g in
  match run_algo ledger ~algo ~k ~seed target with
  | exception Kecss_congest.Network.Did_not_quiesce { rounds; active; in_flight }
    ->
    abort
      ~stall:
        (Some
           {
             Kecss_obs.Flight.st_rounds = rounds;
             st_active = active;
             st_in_flight = in_flight;
           })
      ~reason:"stalled"
      (stalled_error ~faulted:(Option.is_some injector)
         ~report:(fun () -> report_faults injector)
         ~rounds ~active ~in_flight)
  | exception e when Option.is_some injector ->
    (* faults can starve downstream deterministic phases of structure they
       assume (a parent edge, a fragment invariant); under a fault plan
       any failure is the campaign's doing, so report it structurally *)
    report_faults injector;
    abort ~stall:None ~reason:"solver failed under the fault plan"
      ("solver failed under the fault plan: " ^ Printexc.to_string e)
  (* without a fault plan, a solver's refusal (k out of range, a
     disconnected graph, too little connectivity) is a named error *)
  | exception (Failure msg | Invalid_argument msg) -> `Error (false, msg)
  | k, sol, rounds ->
  (* lift a sparsified solution back to original edge ids: verification
     and the printed subgraph are always against the input graph *)
  let sol = match sp with Some sp -> Sparsify.lift sp sol | None -> sol in
  (* cap the verifier's connectivity probe at k: certifying λ ≥ k is all
     `ok` needs, and for k ≤ 2 it keeps verification O(n + m) — the
     difference between seconds and hours at n = 10^6 *)
  let report = Verify.check_kecss ~cap:k g sol ~k in
  let print_results () =
    if not quiet then begin
      Format.eprintf "%a@." Verify.pp_report report;
      (match rounds with
      | Some r -> Format.eprintf "simulated rounds: %d@." r
      | None -> ());
      report_faults injector
    end;
    report_causal Format.err_formatter (Kecss_obs.Probe.causal run.probe) ledger;
    print_solution g sol
  in
  match
    finish run (Some ledger) ~flight_dump:(Some flight_path)
      ~report:print_results
  with
  | Error msg -> `Error (false, msg)
  | Ok () ->
    if report.Verify.ok then `Ok ()
    else `Error (false, "solution failed verification")

let solve_cmd =
  let algo =
    let doc =
      "Algorithm: 2ecss (Thm 1.1), 2ecss-unweighted (weight-oblivious \
       Thm 1.1), kecss (Thm 1.2), 3ecss-unweighted (Thm 1.3), \
       3ecss-weighted (the 5.4 remark), ftmst, thurimella, greedy, exact."
    in
    Arg.(value & opt string "2ecss" & info [ "algorithm"; "a" ] ~doc)
  in
  let quiet = Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"No report on stderr.") in
  Cmd.v
    (Cmd.info "solve" ~doc:"Compute an approximate minimum k-ECSS.")
    Term.(
      ret
        (const solve $ graph_arg $ algo $ k_arg $ seed_arg $ quiet
       $ sparsify_arg $ flight_dump_arg $ run_term ~flight:true))

(* ------------------------------------------------------------------ *)
(* explain                                                             *)
(* ------------------------------------------------------------------ *)

let explain path algo k seed jobs top phase json_out =
  match apply_jobs jobs with
  | Error msg -> `Error (false, msg)
  | Ok () ->
  match read_graph path with
  | Error msg -> `Error (false, msg)
  | Ok g ->
  let causal = Kecss_obs.Causal.create () in
  let ledger = Kecss_congest.Rounds.create ~causal () in
  match run_algo_named ledger ~algo ~k ~seed g with
  | Error msg -> `Error (false, msg)
  | Ok (k, _sol, _rounds) -> (
    let report = Kecss_obs.Causal.analyze causal in
    let total_rounds = Kecss_congest.Rounds.total ledger in
    let total_messages = Kecss_congest.Rounds.total_messages ledger in
    let rounds_by_category = Kecss_congest.Rounds.by_category ledger in
    let messages_by_category =
      Kecss_congest.Rounds.messages_by_category ledger
    in
    match json_out with
    | None ->
      Kecss_obs.Export.causal_tables Format.std_formatter ?top ?phase
        ~total_rounds ~total_messages ~rounds_by_category
        ~messages_by_category report;
      Format.pp_print_flush Format.std_formatter ();
      `Ok ()
    | Some file -> (
      let extra =
        [
          ("algo", Kecss_obs.Json.Str algo);
          ("k", Kecss_obs.Json.Int k);
          ("n", Kecss_obs.Json.Int (Graph.n g));
          ("m", Kecss_obs.Json.Int (Graph.m g));
          ("seed", Kecss_obs.Json.Int seed);
        ]
      in
      let doc =
        Kecss_obs.Export.causal_to_json ?top ?phase ~extra ~total_rounds
          ~total_messages ~rounds_by_category ~messages_by_category report
      in
      ret_of_result (write_json ~what:"causal report" file doc)))

let explain_cmd =
  let algo =
    let doc =
      "Algorithm to explain: 2ecss, 2ecss-unweighted, kecss, \
       3ecss-unweighted, 3ecss-weighted, ftmst, thurimella (the sequential \
       baselines run no engine and have nothing to attribute)."
    in
    Arg.(value & opt string "2ecss" & info [ "algorithm"; "a" ] ~doc)
  in
  let json_out =
    let doc =
      "Write the kecss-causal/1 report as JSON to $(docv) (- for stdout) \
       instead of the human-readable tables."
    in
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Explain where a run's round complexity comes from. Re-runs one \
          algorithm with the causal message recorder on and reports \
          per-phase round attribution — joined with the per-category round \
          ledger, so the rounds column sums to the ledger's total round \
          count — plus the longest message dependency chains (per engine \
          run, a lower bound on that run's counted rounds) and the \
          tightest senders by slack. Causal ids are assigned in the \
          engine's sequential delivery pass, so both the tables and the \
          JSON document are byte-identical at every --jobs.")
    Term.(
      ret
        (const explain $ graph_arg $ algo $ k_arg $ seed_arg $ jobs_arg
       $ top_arg $ phase_arg $ json_out))

(* ------------------------------------------------------------------ *)
(* verify                                                              *)
(* ------------------------------------------------------------------ *)

let verify path sol_path k =
  match read_graph path with
  | Error msg -> `Error (false, msg)
  | Ok g ->
  match read_solution g sol_path with
  | Error msg -> `Error (false, msg)
  | Ok mask ->
    let report = Verify.check_kecss g mask ~k in
    Format.printf "%a@." Verify.pp_report report;
    if report.Verify.ok then `Ok () else `Error (false, "not a k-ECSS")

let verify_cmd =
  let sol =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"SOLUTION" ~doc:"Solution edge list (kecss format).")
  in
  Cmd.v
    (Cmd.info "verify" ~doc:"Verify a claimed k-ECSS.")
    Term.(ret (const verify $ graph_arg $ sol $ k_arg))

(* ------------------------------------------------------------------ *)
(* audit                                                               *)
(* ------------------------------------------------------------------ *)

(* the sequential greedy baseline computes λ by max-flow and, beyond
   k = 4, enumerates cuts exhaustively or by Karger, so it is only joined
   into the audit on small instances *)
let greedy_audit_max_n = 24

let audit path algo k seed json_out trace_path =
  match read_graph path with
  | Error msg -> `Error (false, msg)
  | Ok g ->
  let trace = Kecss_obs.Trace.create () in
  let metrics = Kecss_obs.Metrics.create ~trace () in
  let monitor = Kecss_obs.Monitor.create () in
  Kecss_obs.Monitor.attach monitor trace;
  let ledger = Kecss_congest.Rounds.create ~trace ~metrics () in
  match run_algo_named ledger ~algo ~k ~seed g with
  | Error msg -> `Error (false, msg)
  | Ok (k, sol, _rounds) ->
    let report = Verify.check_kecss g sol ~k in
    let lower_bound =
      match Kecss_baselines.Lower_bound.best g ~k with
      | lb -> lb
      | exception Invalid_argument _ -> 0 (* no k-ECSS exists *)
    in
    let greedy_weight =
      if Graph.n g <= greedy_audit_max_n then
        match Kecss_baselines.Greedy.kecss g ~k with
        | gsol -> Graph.mask_weight g gsol
        | exception _ -> -1
      else -1
    in
    let quality =
      {
        Kecss_obs.Audit.weight = report.Verify.weight;
        edge_count = report.Verify.edge_count;
        lower_bound;
        greedy_weight;
        ratio =
          (if lower_bound > 0 then
             float_of_int report.Verify.weight /. float_of_int lower_bound
           else Float.nan);
        verified = report.Verify.ok;
        connectivity = report.Verify.connectivity;
      }
    in
    let cost =
      {
        Kecss_obs.Audit.rounds = Kecss_congest.Rounds.total ledger;
        messages = Kecss_congest.Rounds.total_messages ledger;
        rounds_by_category = Kecss_congest.Rounds.by_category ledger;
        messages_by_category = Kecss_congest.Rounds.messages_by_category ledger;
        engine = Kecss_obs.Metrics.summary metrics;
      }
    in
    let record =
      {
        Kecss_obs.Audit.algo;
        k;
        n = Graph.n g;
        m = Graph.m g;
        seed;
        quality;
        cost;
        coverage = Kecss_obs.Audit.coverage_curves (Kecss_obs.Trace.events trace);
        violations = Kecss_obs.Monitor.violations monitor;
      }
    in
    match
      match trace_path with
      | Some p -> write_file ~what:"audit" p (Kecss_obs.Export.chrome trace)
      | None -> Ok ()
    with
    | Error msg -> `Error (false, msg)
    | Ok () ->
    match
      match json_out with
      | Some p -> write_json ~what:"audit" p (Kecss_obs.Audit.to_json record)
      | None -> Ok (Format.printf "%a@." Kecss_obs.Audit.pp record)
    with
    | Error msg -> `Error (false, msg)
    | Ok () ->
      if not report.Verify.ok then
        `Error (false, "solution failed verification")
      else if record.Kecss_obs.Audit.violations <> [] then
        `Error
          ( false,
            Printf.sprintf "audit: %d invariant violation(s)"
              (List.length record.Kecss_obs.Audit.violations) )
      else `Ok ()

let audit_cmd =
  let algo =
    let doc =
      "Algorithm to audit: 2ecss, 2ecss-unweighted, kecss, 3ecss-unweighted, \
       3ecss-weighted, ftmst, thurimella, greedy, exact."
    in
    Arg.(value & opt string "2ecss" & info [ "algorithm"; "a" ] ~doc)
  in
  let json_out =
    let doc =
      "Write the audit record as JSON to $(docv) (- for stdout) instead of \
       the human-readable tables."
    in
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)
  in
  Cmd.v
    (Cmd.info "audit"
       ~doc:
         "Run one algorithm under full telemetry and produce a per-run audit \
          record: achieved weight against the Lower_bound baseline (an \
          empirical approximation ratio), the verifier's verdict, the \
          per-iteration cut-coverage curve, round and message budgets by \
          span category, and any invariant violations found by the online \
          monitor. Exits non-zero on verification failure or any violation.")
    Term.(
      ret
        (const audit $ graph_arg $ algo $ k_arg $ seed_arg $ json_out
       $ trace_arg))

(* ------------------------------------------------------------------ *)
(* experiment                                                          *)
(* ------------------------------------------------------------------ *)

let experiment ids list_only run =
  let module E = Kecss_experiments.Experiments in
  if list_only then begin
    List.iter (fun e -> Printf.printf "%-14s %s\n" e.E.id e.E.title) E.all;
    `Ok ()
  end
  else begin
    match run with
    | Error msg -> `Error (false, msg)
    | Ok run ->
    match List.find_opt (fun id -> Option.is_none (E.find id)) ids with
    | Some id -> `Error (false, "unknown experiment: " ^ id)
    | None ->
    (* Every experiment ledger records into its own fork of the run's
       probe, joined back in canonical cell order (see
       [Experiments.set_probe]), so the exported stream is byte-identical
       at every --jobs. A fault injector, whose rng and activation state
       are inherently sequential, is made per ledger too and emits into
       that ledger's fork: each cell sees the plan on its own engine-round
       clock (crash=v17@r40 means round 40 of that cell), which is both
       race-free and independent of scheduling. Stats are aggregated for
       the final report. *)
    let injectors = ref [] in
    let injectors_mu = Mutex.create () in
    let hook p =
      Option.map
        (fun plan ->
          let inj =
            Kecss_faults.Net.injector ~trace:(Kecss_obs.Probe.trace p) plan
          in
          Mutex.lock injectors_mu;
          injectors := inj :: !injectors;
          Mutex.unlock injectors_mu;
          Kecss_faults.Net.hook inj)
        run.plan
    in
    E.set_probe run.probe ~hook;
    let report_fault_totals () =
      match run.plan with
      | None -> ()
      | Some _ ->
        let open Kecss_faults.Net in
        let injs = !injectors in
        let total =
          List.fold_left
            (fun acc i ->
              let s = stats i in
              {
                dropped = acc.dropped + s.dropped;
                delayed = acc.delayed + s.delayed;
                duplicated = acc.duplicated + s.duplicated;
                crashed = acc.crashed + s.crashed;
                cut = acc.cut + s.cut;
                restored = acc.restored + s.restored;
              })
            no_faults injs
        in
        let passes =
          List.fold_left (fun acc i -> acc + rounds_seen i) 0 injs
        in
        Format.eprintf "faults: %a over %d engine rounds in %d ledgers@."
          pp_stats total passes (List.length injs)
    in
    (* the forks' causal recorders are joined into the run's, so one
       analysis covers every cell *)
    let report_causal_totals () =
      let causal = Kecss_obs.Probe.causal run.probe in
      if Kecss_obs.Causal.enabled causal then begin
        let r = Kecss_obs.Causal.analyze causal in
        Format.eprintf
          "causal: %d engine rounds traced, %d messages, %d runs; critical \
           rounds %d, longest dependency chain %d@."
          r.Kecss_obs.Causal.rp_rounds r.Kecss_obs.Causal.rp_messages
          r.Kecss_obs.Causal.rp_runs r.Kecss_obs.Causal.rp_critical_rounds
          r.Kecss_obs.Causal.rp_critical
      end
    in
    match
      List.iter
        (fun e -> ignore (E.run_and_print e))
        (if ids = [] then E.all else List.filter_map E.find ids)
    with
    | exception Kecss_congest.Network.Did_not_quiesce
        { rounds; active; in_flight } ->
      `Error
        ( false,
          stalled_error ~faulted:(Option.is_some run.plan)
            ~report:report_fault_totals ~rounds ~active ~in_flight
        )
    | exception e when Option.is_some run.plan ->
      (* as in [solve]: under a fault plan any failure is the campaign's
         doing, so report it structurally *)
      report_fault_totals ();
      `Error
        (false, "experiment failed under the fault plan: " ^ Printexc.to_string e)
    | exception Failure msg -> `Error (false, msg)
    | () -> (
      let report () =
        report_fault_totals ();
        report_causal_totals ()
      in
      match finish run None ~flight_dump:None ~report with
      | Error msg -> `Error (false, msg)
      | Ok () -> `Ok ())
  end

let experiment_cmd =
  let ids =
    Arg.(value & pos_all string [] & info [] ~docv:"ID" ~doc:"Experiment ids.")
  in
  let list_only =
    Arg.(value & flag & info [ "list" ] ~doc:"List available experiments.")
  in
  Cmd.v
    (Cmd.info "experiment" ~doc:"Run reproduction experiments."
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Workload cells fan out over the domain pool at every \
              telemetry setting; each cell's ledgers record into private \
              forks of the run's probe, joined back in canonical order, \
              so exported streams are byte-identical at every --jobs. \
              Under --faults each ledger gets its own injector on its own \
              engine-round clock (a scheduled crash=v17@r40 fires at \
              round 40 of every ledger), with injection stats aggregated \
              in the final report; a failure the plan causes ends the run \
              with a named error.";
         ])
    Term.(ret (const experiment $ ids $ list_only $ run_term ~flight:false))

(* ------------------------------------------------------------------ *)
(* resilience                                                          *)
(* ------------------------------------------------------------------ *)

let resilience path algo sol_path k seed jobs trials json_out strict =
  match apply_jobs jobs with
  | Error msg -> `Error (false, msg)
  | Ok () ->
  match read_graph path with
  | Error msg -> `Error (false, msg)
  | Ok g ->
  let obtain =
    match sol_path with
    | Some sp -> Result.map (fun mask -> (k, mask)) (read_solution g sp)
    | None ->
      Result.map
        (fun (k, sol, _rounds) -> (k, sol))
        (run_algo_named (Kecss_congest.Rounds.create ()) ~algo ~k ~seed g)
  in
  match obtain with
  | Error msg -> `Error (false, msg)
  | Ok (k, h) ->
    let rng = Rng.create ~seed in
    (* the attack runs on the pool: a --jobs past the runtime's domain
       limit fails in Pool.create, and that is a named error too *)
    match Kecss_faults.Resilience.attack ~trials ~rng g ~h ~k with
    | exception Failure msg -> `Error (false, msg)
    | rep ->
    match
      match json_out with
      | Some p ->
        write_json ~what:"report" p (Kecss_faults.Resilience.to_json rep)
      | None -> Ok (Format.printf "%a@." Kecss_faults.Resilience.pp rep)
    with
    | Error msg -> `Error (false, msg)
    | Ok () ->
      if strict && not (Kecss_faults.Resilience.ok rep) then
        `Error
          ( false,
            "resilience: a disconnecting failure set within the k-1 budget \
             exists" )
      else `Ok ()

let resilience_cmd =
  let algo =
    let doc =
      "Algorithm whose output to attack: 2ecss, 2ecss-unweighted, kecss, \
       3ecss-unweighted, 3ecss-weighted, ftmst, thurimella, greedy, exact. \
       Ignored when $(b,--solution) is given."
    in
    Arg.(value & opt string "2ecss" & info [ "algorithm"; "a" ] ~doc)
  in
  let sol =
    let doc =
      "Attack this solution edge list (kecss format) instead of running an \
       algorithm first."
    in
    Arg.(value & opt (some string) None & info [ "solution" ] ~docv:"FILE" ~doc)
  in
  let trials =
    let doc = "Random (k-1)-edge failure sets to sample." in
    Arg.(value & opt int 64 & info [ "trials" ] ~doc)
  in
  let json_out =
    let doc =
      "Write the kecss-resilience/1 report as JSON to $(docv) (- for stdout)."
    in
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)
  in
  let strict =
    let doc =
      "Exit non-zero if any disconnecting failure set within the k-1 budget \
       is found."
    in
    Arg.(value & flag & info [ "strict" ] ~doc)
  in
  Cmd.v
    (Cmd.info "resilience"
       ~doc:
         "Attack a k-ECSS solution with up to k-1 edge failures: cut-guided \
          witness search (bridges, the exact label census of 2- and 3-cuts, \
          exhaustive enumeration or seeded Karger contraction) plus seeded \
          random failure sampling, reporting the survival rate, worst \
          residual connectivity and the failure margin lambda - (k-1). A \
          Verify-passing solution must survive everything.")
    Term.(
      ret
        (const resilience $ graph_arg $ algo $ sol $ k_arg $ seed_arg
       $ jobs_arg $ trials $ json_out $ strict))

(* ------------------------------------------------------------------ *)
(* info                                                                *)
(* ------------------------------------------------------------------ *)

let info_run path =
  match read_graph path with
  | Error msg -> `Error (false, msg)
  | Ok g ->
  let n = Graph.n g in
  let ppf = Format.std_formatter in
  let connected = Graph.is_connected g in
  (* double-sweep BFS: a cheap diameter lower bound that is exact on trees
     and usually tight in practice — the exact O(nm) diameter is only
     computed on small graphs *)
  let diameter_estimate =
    if not connected then -1
    else begin
      let far dist =
        let v = ref 0 in
        Array.iteri (fun i d -> if d > dist.(!v) then v := i) dist;
        !v
      in
      let d0 = Graph.bfs g 0 in
      let u = far d0 in
      let du = Graph.bfs g u in
      du.(far du)
    end
  in
  (* λ ≤ min degree, so min degree is both a feasibility cap on k and the
     early-exit ceiling that keeps the exact λ computation affordable *)
  let min_deg =
    if n = 0 then 0
    else begin
      let d = ref max_int in
      for v = 0 to n - 1 do
        d := min !d (Graph.degree g v)
      done;
      !d
    end
  in
  let structure =
    [
      [ Kecss_obs.Export.S "vertices"; Kecss_obs.Export.I n ];
      [ Kecss_obs.Export.S "edges"; Kecss_obs.Export.I (Graph.m g) ];
      [ Kecss_obs.Export.S "total weight"; Kecss_obs.Export.I (Graph.total_weight g) ];
      [ Kecss_obs.Export.S "max weight"; Kecss_obs.Export.I (Graph.max_weight g) ];
      [ Kecss_obs.Export.S "components"; Kecss_obs.Export.I (Graph.num_components g) ];
      [ Kecss_obs.Export.S "min degree (caps λ and feasible k)";
        Kecss_obs.Export.I min_deg ];
    ]
    @ (if not connected then []
       else
         [ Kecss_obs.Export.S "diameter (double-sweep LB)";
           Kecss_obs.Export.I diameter_estimate ]
         :: (if n <= 512 then
               [
                 [ Kecss_obs.Export.S "diameter (exact)";
                   Kecss_obs.Export.I (Graph.diameter g) ];
               ]
             else [])
         @ (if n <= 2048 then
              [
                [ Kecss_obs.Export.S "edge connectivity λ";
                  Kecss_obs.Export.I (Edge_connectivity.lambda g) ];
              ]
            else []))
  in
  Kecss_obs.Export.table ppf ~title:"structure" ~columns:[ "fact"; "value" ]
    structure;
  (* degree histogram *)
  let max_deg = ref 0 in
  for v = 0 to n - 1 do
    max_deg := max !max_deg (Graph.degree g v)
  done;
  let hist = Array.make (!max_deg + 1) 0 in
  for v = 0 to n - 1 do
    let d = Graph.degree g v in
    hist.(d) <- hist.(d) + 1
  done;
  let rows = ref [] in
  Array.iteri
    (fun d c ->
      if c > 0 then
        rows :=
          [
            Kecss_obs.Export.I d; Kecss_obs.Export.I c;
            Kecss_obs.Export.F (100.0 *. float_of_int c /. float_of_int n);
          ]
          :: !rows)
    hist;
  Kecss_obs.Export.table ppf ~title:"degree histogram"
    ~columns:[ "degree"; "vertices"; "%" ]
    (List.rev !rows);
  Format.pp_print_flush ppf ();
  `Ok ()

let info_cmd =
  Cmd.v
    (Cmd.info "info" ~doc:"Print structural facts about a graph.")
    Term.(ret (const info_run $ graph_arg))

(* ------------------------------------------------------------------ *)
(* serve / client                                                      *)
(* ------------------------------------------------------------------ *)

module Server = Kecss_serve.Server

let socket_arg =
  let doc =
    "Listen/connect address: unix:PATH (or a bare path) or tcp:HOST:PORT."
  in
  Arg.(value & opt string "unix:kecss.sock" & info [ "socket" ] ~docv:"ADDR" ~doc)

let serve_run graph_path k seed jobs stdio socket quiet =
  match apply_jobs jobs with
  | Error m -> `Error (false, m)
  | Ok () ->
  match read_graph graph_path with
  | Error m -> `Error (false, m)
  | Ok g ->
  match Server.create ~seed g ~k with
  | exception Invalid_argument m -> `Error (false, m)
  | srv -> (
    let log s = if not quiet then Printf.eprintf "kecss serve: %s\n%!" s in
    let finish () =
      if not quiet then begin
        let ppf = Format.err_formatter in
        Kecss_obs.Export.latency_table ppf ~title:"request latency"
          (Server.latencies srv);
        Format.pp_print_flush ppf ()
      end
    in
    if stdio then begin
      Server.run_stdio srv;
      finish ();
      `Ok ()
    end
    else
      match Server.address_of_string socket with
      | Error m -> `Error (false, m)
      | Ok addr -> (
        match Server.listen ~log srv addr with
        | exception Failure msg -> `Error (false, msg)
        | () ->
          finish ();
          `Ok ()))

let serve_cmd =
  let stdio =
    Arg.(
      value & flag
      & info [ "stdio" ]
          ~doc:"Serve a single session over stdin/stdout instead of a socket.")
  in
  let quiet =
    Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Suppress stderr logging.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the resident solver service: load a graph, build the \
          canonical sparse certificate, and answer solve / verify / \
          resilience / audit / stats / update / churn requests over a \
          length-prefixed JSON protocol, maintaining the solution \
          incrementally under edge churn.")
    Term.(
      ret
        (const serve_run $ graph_arg $ k_arg $ seed_arg $ jobs_arg $ stdio
       $ socket_arg $ quiet))

let client_run socket script =
  match Server.address_of_string socket with
  | Error m -> `Error (false, m)
  | Ok addr -> (
    match if script = "-" then stdin else open_in script with
    | exception Sys_error m -> `Error (false, "cannot read script: " ^ m)
    | input ->
      ret_of_result
        (Fun.protect
           ~finally:(fun () -> if script <> "-" then close_in input)
           (fun () -> Server.client ~input ~output:stdout addr)))

let client_cmd =
  let script =
    Arg.(
      value & pos 0 string "-"
      & info [] ~docv:"SCRIPT"
          ~doc:"Request script: one JSON request per line (- for stdin).")
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Send a scripted session to a running kecss serve daemon and \
          print one JSON response per line (the session transcript).")
    Term.(ret (const client_run $ socket_arg $ script))

(* ------------------------------------------------------------------ *)

let () =
  let doc = "distributed approximation of minimum k-edge-connected spanning subgraphs" in
  let main =
    Cmd.group
      (Cmd.info "kecss" ~version:"1.0.0" ~doc)
      [
        generate_cmd; convert_cmd; solve_cmd; explain_cmd; verify_cmd;
        audit_cmd; resilience_cmd; experiment_cmd; serve_cmd; client_cmd;
        info_cmd;
      ]
  in
  exit (Cmd.eval main)
