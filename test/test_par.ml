(* lib/par: the deterministic multicore execution layer.

   The contract under test is the one every caller builds on: a pool
   operation's result depends only on the submitted tasks and their
   canonical indices — never on the pool size or on scheduling. The
   suite checks the pool mechanics (batching, failures, nesting,
   shutdown) and then the contract end to end: solver outputs, trace
   event streams, enumerated cut lists, resilience reports and engine
   runs inside experiment cells must be identical at jobs = 1 and
   jobs = 4. *)

open Kecss_graph
open Kecss_congest
open Kecss_core
open Common
module Pool = Kecss_par.Pool

let with_pool jobs f =
  let p = Pool.create ~jobs in
  Fun.protect ~finally:(fun () -> Pool.shutdown p) (fun () -> f p)

(* the process-default pool is shared state: pin it back to 1 afterwards
   so suites do not leak a pool size into each other *)
let with_default_jobs jobs f =
  Pool.set_default_jobs jobs;
  Fun.protect ~finally:(fun () -> Pool.set_default_jobs 1) f

(* ---------- pool mechanics ---------- *)

let test_parallel_for_covers () =
  List.iter
    (fun jobs ->
      with_pool jobs (fun pool ->
          let n = 1000 in
          let out = Array.make n (-1) in
          Pool.parallel_for ~pool n (fun i -> out.(i) <- i * i);
          Array.iteri
            (fun i v ->
              Alcotest.(check int) (Printf.sprintf "jobs=%d cell %d" jobs i)
                (i * i) v)
            out))
    [ 1; 2; 4 ]

let test_zero_tasks () =
  with_pool 4 (fun pool ->
      Pool.run_batch pool ~ntasks:0 (fun _ -> Alcotest.fail "task ran");
      Pool.parallel_for ~pool 0 (fun _ -> Alcotest.fail "task ran");
      Alcotest.(check (array int)) "empty map" [||]
        (Pool.map ~pool (fun x -> x) [||]);
      Alcotest.(check int) "empty reduce" 42
        (Pool.map_reduce ~pool ~map:(fun i -> i) ~merge:( + ) ~init:42 0))

let test_map_values () =
  with_pool 3 (fun pool ->
      let a = Array.init 257 (fun i -> i) in
      (* floats specifically: the result array must be representation-safe *)
      let f = Pool.map ~pool (fun i -> float_of_int i *. 0.5) a in
      Alcotest.(check (float 0.0)) "float cell" 64.0 f.(128);
      Alcotest.(check int) "length" 257 (Array.length f))

let test_map_reduce_order () =
  (* concatenation is not commutative: only a strictly ascending
     index-order merge produces this string, at any pool size *)
  let expected = String.concat "," (List.init 64 string_of_int) in
  List.iter
    (fun jobs ->
      with_pool jobs (fun pool ->
          let got =
            Pool.map_reduce ~pool ~chunk:1 ~map:string_of_int
              ~merge:(fun acc s -> if acc = "" then s else acc ^ "," ^ s)
              ~init:"" 64
          in
          Alcotest.(check string) (Printf.sprintf "jobs=%d" jobs) expected got))
    [ 1; 3; 4 ]

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

exception Boom of int

let test_exception_lowest_index () =
  List.iter
    (fun jobs ->
      with_pool jobs (fun pool ->
          let ran = Array.make 16 false in
          (match
             Pool.run_batch pool ~ntasks:16 (fun i ->
                 ran.(i) <- true;
                 if i = 5 || i = 11 then raise (Boom i))
           with
          | () -> Alcotest.fail "expected Boom"
          | exception Boom i ->
            Alcotest.(check int)
              (Printf.sprintf "jobs=%d lowest failing index" jobs)
              5 i);
          (* every task ran despite the failures... *)
          Array.iteri
            (fun i r ->
              Alcotest.(check bool) (Printf.sprintf "task %d ran" i) true r)
            ran;
          (* ...and the pool survives for the next batch *)
          let out = Array.make 8 0 in
          Pool.parallel_for ~pool 8 (fun i -> out.(i) <- i + 1);
          Alcotest.(check int) "pool reusable after failure" 8 out.(7)))
    [ 1; 4 ]

let test_nested_submission () =
  with_pool 4 (fun pool ->
      (* the core primitive rejects nesting loudly... *)
      (match
         Pool.run_batch pool ~ntasks:2 (fun _ ->
             Pool.run_batch pool ~ntasks:2 (fun _ -> ()))
       with
      | () -> Alcotest.fail "expected Failure on nested run_batch"
      | exception Failure msg ->
        Alcotest.(check bool) "message names nesting" true
          (contains ~affix:"nested" msg));
      (* ...while the combinators degrade to inline execution, so library
         code can fan out without knowing whether it already runs inside
         a task *)
      let out = Array.make 64 (-1) in
      Pool.run_batch pool ~ntasks:4 (fun t ->
          Pool.parallel_for ~pool 16 (fun i -> out.((t * 16) + i) <- t));
      Array.iteri
        (fun i v -> Alcotest.(check int) (Printf.sprintf "cell %d" i) (i / 16) v)
        out)

let test_shutdown () =
  let pool = Pool.create ~jobs:4 in
  Pool.shutdown pool;
  Pool.shutdown pool;
  (match Pool.run_batch pool ~ntasks:4 (fun _ -> ()) with
  | () -> Alcotest.fail "expected Failure after shutdown"
  | exception Failure _ -> ());
  Alcotest.(check bool) "jobs < 1 rejected" true
    (match Pool.create ~jobs:0 with
    | exception Invalid_argument _ -> true
    | p ->
      Pool.shutdown p;
      false)

(* the runtime caps how many domains may run at once: a pool past the cap
   must fail with a named error and join the workers it did start, or the
   next pool of the process could not start its own *)
let test_create_past_domain_limit () =
  (match Pool.create ~jobs:100_000 with
  | p ->
    Pool.shutdown p;
    Alcotest.fail "expected Failure past the domain limit"
  | exception Failure msg ->
    Alcotest.(check bool) "message names Pool.create" true
      (contains ~affix:"Pool.create" msg));
  with_pool 2 (fun pool ->
      let out = Array.make 64 0 in
      Pool.parallel_for ~pool ~chunk:1 64 (fun i -> out.(i) <- i + 1);
      Alcotest.(check int) "a 2-job pool still runs" 64 out.(63))

(* ---------- determinism across pool sizes ---------- *)

let test_graph ~n ~k ~seed =
  let rng = Rng.create ~seed in
  Weights.uniform rng ~lo:1 ~hi:30 (Gen.random_k_connected rng n k ~extra:n)

(* one fully instrumented 2-ECSS solve on the process-default pool;
   returns everything observable: the solution, costs, and the whole
   trace event stream *)
let instrumented_2ecss () =
  let g = test_graph ~n:48 ~k:2 ~seed:11 in
  let trace = Kecss_obs.Trace.create () in
  let metrics = Kecss_obs.Metrics.create ~trace () in
  let ledger = Rounds.create ~trace ~metrics () in
  let r = Ecss2.solve_with ledger (Rng.create ~seed:1) g in
  ( Bitset.elements r.Ecss2.solution,
    r.Ecss2.rounds,
    Rounds.total_messages ledger,
    Kecss_obs.Trace.events trace )

let test_solver_identical () =
  let sol1, rounds1, msgs1, ev1 = with_default_jobs 1 instrumented_2ecss in
  let sol4, rounds4, msgs4, ev4 = with_default_jobs 4 instrumented_2ecss in
  Alcotest.(check (list int)) "solution edges" sol1 sol4;
  Alcotest.(check int) "rounds" rounds1 rounds4;
  Alcotest.(check int) "messages" msgs1 msgs4;
  Alcotest.(check int) "trace event count" (List.length ev1) (List.length ev4);
  Alcotest.(check bool) "trace event stream" true (ev1 = ev4)

let test_kecss_identical () =
  (* the k-ECSS solver exercises the parallel Karger enumeration inside
     its augmentation phase at the level it still calls it: Aug_5 covers
     the 4-cuts, past the label census's sizes *)
  let solve () =
    let g = test_graph ~n:32 ~k:5 ~seed:7 in
    let r = Kecss.solve ~seed:1 g ~k:5 in
    let top = List.find (fun l -> l.Kecss.level = 5) r.Kecss.levels in
    Alcotest.(check bool) "Aug_5 has 4-cuts to cover" true (top.Kecss.iterations > 0);
    (Bitset.elements r.Kecss.solution, r.Kecss.weight, r.Kecss.rounds)
  in
  let s1, w1, r1 = with_default_jobs 1 solve in
  let s4, w4, r4 = with_default_jobs 4 solve in
  Alcotest.(check (list int)) "solution edges" s1 s4;
  Alcotest.(check int) "weight" w1 w4;
  Alcotest.(check int) "rounds" r1 r4

let test_enumerate_identical () =
  let g = test_graph ~n:40 ~k:2 ~seed:3 in
  let enum pool =
    Kecss_connectivity.Min_cut_enum.enumerate ~pool ~rng:(Rng.create ~seed:5) g
      ~size:2
  in
  let c1 = with_pool 1 enum and c4 = with_pool 4 enum in
  Alcotest.(check int) "cut count" (List.length c1) (List.length c4);
  (* order matters: the canonical merge must make the whole list, not
     just the set, independent of scheduling *)
  List.iter2
    (fun a b ->
      Alcotest.(check (list int))
        "cut edges" a.Kecss_connectivity.Min_cut_enum.edge_ids
        b.Kecss_connectivity.Min_cut_enum.edge_ids;
      Alcotest.(check (list int))
        "cut side"
        (Bitset.elements a.Kecss_connectivity.Min_cut_enum.side)
        (Bitset.elements b.Kecss_connectivity.Min_cut_enum.side))
    c1 c4

let test_resilience_identical () =
  let g = test_graph ~n:32 ~k:3 ~seed:9 in
  let h = Graph.all_edges_mask g in
  let attack pool =
    Kecss_faults.Resilience.attack ~trials:48 ~rng:(Rng.create ~seed:2) ~pool g
      ~h ~k:3
  in
  let r1 = with_pool 1 attack and r4 = with_pool 4 attack in
  Alcotest.(check bool) "whole report" true (r1 = r4);
  Alcotest.(check string) "rendered report" (Format.asprintf "%a" Kecss_faults.Resilience.pp r1)
    (Format.asprintf "%a" Kecss_faults.Resilience.pp r4)

(* forked probes under real pool parallelism: cells record into private
   children on worker domains, and the exports joined in index order must
   be byte-identical to the jobs = 1 run *)
let forked_cells jobs =
  let trace = Kecss_obs.Trace.create () in
  let metrics = Kecss_obs.Metrics.create ~trace () in
  let probe = Kecss_obs.Probe.create ~trace ~metrics () in
  let n = 6 in
  let kids = Array.init n (fun _ -> Kecss_obs.Probe.fork probe) in
  with_pool jobs (fun pool ->
      Pool.parallel_for ~pool ~chunk:1 n (fun i ->
          let g = test_graph ~n:24 ~k:2 ~seed:(100 + i) in
          let ledger = Rounds.of_probe kids.(i) ~hook:None in
          ignore (Ecss2.solve_with ledger (Rng.create ~seed:1) g)));
  Array.iter (Kecss_obs.Probe.join probe) kids;
  ( Kecss_obs.Export.jsonl trace,
    Kecss_obs.Trace.counter_total trace "messages",
    Kecss_obs.Metrics.summary metrics )

let test_forked_probes_identical () =
  let j1, c1, s1 = forked_cells 1 and j4, c4, s4 = forked_cells 4 in
  Alcotest.(check int) "merged message counter" c1 c4;
  Alcotest.(check bool) "merged metrics summary" true (s1 = s4);
  Alcotest.(check string) "merged event stream byte-identical" j1 j4

(* The experiments' telemetry snapshot rows read each ledger's own
   metrics collector, so registering a recording probe must not change
   any rendered table, at any pool size. *)
let experiment_tables probe jobs id =
  let module E = Kecss_experiments.Experiments in
  with_default_jobs jobs (fun () ->
      E.set_probe probe ~hook:(fun _ -> None);
      Fun.protect
        ~finally:(fun () -> E.set_probe Kecss_obs.Probe.noop ~hook:(fun _ -> None))
        (fun () ->
          let e = Option.get (E.find id) in
          String.concat "\n"
            (List.map Kecss_experiments.Table.render (e.E.run ()).E.tables)))

let test_experiment_snapshots () =
  List.iter
    (fun id ->
      let plain = experiment_tables Kecss_obs.Probe.noop 1 id in
      List.iter
        (fun jobs ->
          let trace = Kecss_obs.Trace.create () in
          let metrics = Kecss_obs.Metrics.create ~trace () in
          let probe = Kecss_obs.Probe.create ~trace ~metrics () in
          Alcotest.(check string)
            (Printf.sprintf "%s plain tables at jobs %d" id jobs)
            plain
            (experiment_tables Kecss_obs.Probe.noop jobs id);
          Alcotest.(check string)
            (Printf.sprintf "%s traced tables at jobs %d" id jobs)
            plain
            (experiment_tables probe jobs id);
          Alcotest.(check bool)
            "the run's collector holds the joined ledgers" true
            (Kecss_obs.Metrics.runs metrics > 0))
        [ 1; 4 ])
    [ "T1.1-rounds"; "M-messages"; "L4-iters"; "B-baselines"; "A-mstfilter" ]

(* ---------- utilization instrumentation ---------- *)

let test_pool_stats () =
  with_pool 3 (fun pool ->
      let stats0 = Pool.stats pool in
      Alcotest.(check int) "one cell per domain" 3 (Array.length stats0);
      Array.iter
        (fun s -> Alcotest.(check int) "starts at zero" 0 s.Pool.tasks)
        stats0;
      Pool.parallel_for ~pool ~chunk:1 100 (fun i ->
          Sys.opaque_identity (ref i) |> ignore);
      let stats = Pool.stats pool in
      let total_tasks = Array.fold_left (fun a s -> a + s.Pool.tasks) 0 stats in
      Alcotest.(check int) "every task accounted to exactly one domain" 100
        total_tasks;
      Array.iter
        (fun s -> Alcotest.(check bool) "busy time nonnegative" true
            (s.Pool.busy_ns >= 0.0))
        stats;
      Alcotest.(check bool) "pool lifetime positive" true
        (Pool.lifetime_ns pool > 0.0);
      Pool.reset_stats pool;
      Array.iter
        (fun s ->
          Alcotest.(check int) "reset clears tasks" 0 s.Pool.tasks;
          Alcotest.(check bool) "reset clears busy" true (s.Pool.busy_ns = 0.0))
        (Pool.stats pool);
      (* inline execution accounts to the submitter cell *)
      Pool.parallel_for ~pool 1 (fun _ -> ());
      Alcotest.(check int) "submitter cell" 1 (Pool.stats pool).(0).Pool.tasks)

(* the persistent duplicate-send scratch: detection must survive across
   many runs on one domain (the stamp strictly increases, stale cells
   never match) *)
let test_duplicate_detection_across_runs () =
  let g = Gen.cycle 4 in
  let dup =
    {
      Network.init = (fun _ -> ());
      step =
        (fun ~round v () _inbox ->
          if round = 0 && v = 0 then
            ( [
                { Network.edge = 0; payload = [| 1 |] };
                { Network.edge = 0; payload = [| 2 |] };
              ],
              `Idle )
          else ([], `Idle));
    }
  in
  let honest =
    {
      Network.init = (fun _ -> ());
      step =
        (fun ~round v () _inbox ->
          if round = 0 && v = 0 then
            ([ { Network.edge = 0; payload = [| 1 |] } ], `Idle)
          else ([], `Idle));
    }
  in
  for _ = 1 to 50 do
    ignore (Network.run g honest)
  done;
  (match Network.run g dup with
  | _ -> Alcotest.fail "expected Duplicate_send"
  | exception Network.Duplicate_send { vertex; edge } ->
    Alcotest.(check int) "vertex" 0 vertex;
    Alcotest.(check int) "edge" 0 edge);
  (* an aborted run must not poison later ones *)
  ignore (Network.run g honest)

let () =
  Alcotest.run "par"
    [
      ( "pool",
        [
          case "parallel_for covers every index at any size"
            test_parallel_for_covers;
          case "zero tasks are a no-op" test_zero_tasks;
          case "map handles float results" test_map_values;
          case "map_reduce merges in ascending index order"
            test_map_reduce_order;
          case "lowest-index failure wins; pool survives"
            test_exception_lowest_index;
          case "nested run_batch rejected; combinators inline"
            test_nested_submission;
          case "shutdown is idempotent and final" test_shutdown;
          case "create past the domain limit fails and joins its workers"
            test_create_past_domain_limit;
        ] );
      ( "determinism",
        [
          case "2-ECSS solve + trace stream identical at jobs 1 and 4"
            test_solver_identical;
          case "k-ECSS solve identical at jobs 1 and 4" test_kecss_identical;
          case "cut enumeration list identical at jobs 1 and 4"
            test_enumerate_identical;
          case "resilience report identical at jobs 1 and 4"
            test_resilience_identical;
          case "sharded trace/metrics sinks identical at jobs 1 and 4"
            test_forked_probes_identical;
          case "duplicate-send detection survives across runs"
            test_duplicate_detection_across_runs;
          case "experiment snapshot tables identical with a recording probe"
            test_experiment_snapshots;
        ] );
      ( "instrumentation",
        [ case "per-domain busy/task accounting" test_pool_stats ] );
    ]
