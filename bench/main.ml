(* The benchmark harness.

   Two layers:

   1. The reproduction experiments (lib/experiments): every table and
      figure of DESIGN.md §4, printed as tables. These regenerate the
      paper's claims and are what EXPERIMENTS.md records.

   2. Bechamel wall-clock microbenchmarks: one Test.make per experiment id
      (on a scaled-down instance of that table's workload) plus the hot
      kernels, so regressions in the implementation itself are visible.

   Results can be appended to a benchmark-history file (see History) and
   compared against an older file with --compare, which flags regressions
   beyond --threshold.

   Usage:
     dune exec bench/main.exe                 # everything
     dune exec bench/main.exe -- --quick      # cheap experiments + micro
     dune exec bench/main.exe -- --exp T1.1-rounds [--exp ...]
     dune exec bench/main.exe -- --micro-only
     dune exec bench/main.exe -- --no-micro
     dune exec bench/main.exe -- --quick --compare BENCH_old.json *)

open Kecss_graph
open Kecss_congest
open Kecss_core
module E = Kecss_experiments.Experiments
module W = Kecss_experiments.Workloads

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks                                            *)
(* ------------------------------------------------------------------ *)

open Bechamel
open Toolkit

let stage = Staged.stage

(* one Test.make per experiment table, on a scaled-down workload *)
let per_table_tests =
  [
    Test.make ~name:"T1.1-rounds/ecss2-n64"
      (stage (fun () -> Ecss2.solve ~seed:1 (W.weighted_random ~n:64 ~k:2)));
    Test.make ~name:"T1.1-approx/greedy-n64"
      (stage (fun () ->
           Kecss_baselines.Greedy.kecss (W.weighted_random ~n:64 ~k:2) ~k:2));
    Test.make ~name:"T1.2-rounds/kecss3-n32"
      (stage (fun () -> Kecss.solve ~seed:1 (W.weighted_random ~n:32 ~k:3) ~k:3));
    Test.make ~name:"T1.2-approx/exact-n8"
      (stage (fun () -> Kecss_baselines.Exact.kecss (W.tiny_exact ~seed:1) ~k:2));
    Test.make ~name:"T1.3-rounds/ecss3-n64"
      (stage (fun () -> Ecss3.solve ~seed:1 (W.unweighted_low_d ~n:64)));
    Test.make ~name:"T1.3-approx/thurimella-n64"
      (stage (fun () ->
           Kecss_baselines.Thurimella.sparse_certificate (Rng.create ~seed:1)
             (W.unweighted_low_d ~n:64) ~k:3));
    Test.make ~name:"L3.11-iters/tap-n128"
      (stage (fun () -> Ecss2.solve ~seed:1 (W.spread_random ~n:128 ~ratio:128)));
    Test.make ~name:"L4-iters/aug2-n32"
      (stage (fun () ->
           let g = W.weighted_random ~n:32 ~k:2 in
           let ledger = Rounds.create () in
           let rng = Rng.create ~seed:1 in
           let bfs = Prim.bfs_tree ledger g ~root:0 in
           let bfs_forest = Forest.of_rooted_tree bfs in
           let mst = Mst.run ledger (Rng.split rng) g in
           Augk.augment ledger (Rng.split rng) ~bfs_forest g ~h:mst.Mst.mask ~k:2));
    Test.make ~name:"L3.4-decomp/segments-n256"
      (stage (fun () ->
           let g = W.weighted_random ~n:256 ~k:2 in
           let ledger = Rounds.create () in
           let rng = Rng.create ~seed:1 in
           let bfs = Prim.bfs_tree ledger g ~root:0 in
           let bfs_forest = Forest.of_rooted_tree bfs in
           let mst = Mst.run ledger rng g in
           Segments.build ledger ~bfs_forest mst));
    Test.make ~name:"P5.1-labels/labels-n64"
      (stage
         (let g = W.unweighted_low_d ~n:64 in
          let tree = Rooted_tree.bfs_tree g ~root:0 in
          let mask = Graph.all_edges_mask g in
          fun () ->
            Kecss_cycle_space.Labels.compute (Rng.create ~seed:1) tree
              ~h_mask:mask));
    Test.make ~name:"B-baselines/ecss2u-n256"
      (stage (fun () ->
           Ecss2_unweighted.solve (Graph.unit_weights (W.weighted_random ~n:256 ~k:2))));
  ]

let name_contains sub name =
  let ln = String.length name and ls = String.length sub in
  let rec go i = i + ls <= ln && (String.sub name i ls = sub || go (i + 1)) in
  go 0

(* the N of a hot/*-jN row, which runs on an N-domain pool *)
let pool_jobs name =
  match String.rindex_opt name '-' with
  | Some i
    when name_contains "hot/" name
         && i + 2 < String.length name
         && name.[i + 1] = 'j' ->
    int_of_string_opt (String.sub name (i + 2) (String.length name - i - 2))
  | _ -> None

(* the iteration hot path of the cover engines: large fixtures (graph, BFS
   forest, MST, segment decomposition, the (k-1)-connected start H) are
   built outside the timed closure, so it contains exactly the augmentation
   loop.  Each row is a (name, build) pair: [build ()] makes the fixture
   right before the row runs and returns it with a release function the
   runner calls right after.  A pool kept alive across rows would make
   every minor GC of the later rows wait on its idle domains. *)
let hot_tests () =
  let plain test = (test, ignore) in
  let with_pool ~jobs f =
    let pool = Kecss_par.Pool.create ~jobs in
    (f pool, fun () -> Kecss_par.Pool.shutdown pool)
  in
  let tap_hot n =
    let g = W.weighted_random ~n ~k:2 in
    let ledger = Rounds.create () in
    let rng = Rng.create ~seed:1 in
    let bfs = Prim.bfs_tree ledger g ~root:0 in
    let bfs_forest = Forest.of_rooted_tree bfs in
    let mst = Mst.run ledger (Rng.split rng) g in
    let segs = Segments.build ledger ~bfs_forest mst in
    plain
      (stage (fun () ->
           ignore
             (Tap.augment (Rounds.create ()) (Rng.create ~seed:2) ~bfs_forest segs)))
  in
  let augk_hot n ~k =
    let g = W.weighted_random ~n ~k in
    let ledger = Rounds.create () in
    let rng = Rng.create ~seed:1 in
    let bfs = Prim.bfs_tree ledger g ~root:0 in
    let bfs_forest = Forest.of_rooted_tree bfs in
    let mst = Mst.run ledger (Rng.split rng) g in
    let h = Bitset.copy mst.Mst.mask in
    let r2 = Augk.augment ledger (Rng.split rng) ~bfs_forest g ~h ~k:2 in
    Bitset.union_into h r2.Augk.augmentation;
    plain
      (stage (fun () ->
           ignore
             (Augk.augment (Rounds.create ()) (Rng.create ~seed:2) ~bfs_forest g
                ~h ~k)))
  in
  (* the parallel layer's hot paths at pinned pool sizes: the j1/j4 pair
     of each row measures the multicore speedup directly (results are
     identical by the determinism contract, only the wall clock moves).
     Explicit pools, so the rows are independent of --jobs. *)
  let mincut_par ~jobs =
    let g = W.weighted_random ~n:96 ~k:3 in
    let lam = Kecss_connectivity.Edge_connectivity.lambda ~upper:3 g in
    with_pool ~jobs (fun pool ->
        stage (fun () ->
            ignore
              (Kecss_connectivity.Min_cut_enum.enumerate ~trials:20_000 ~pool
                 ~rng:(Rng.create ~seed:3) g ~size:lam)))
  in
  let resilience_par ~jobs =
    let g = W.weighted_random ~n:64 ~k:3 in
    let h = Graph.all_edges_mask g in
    with_pool ~jobs (fun pool ->
        stage (fun () ->
            ignore
              (Kecss_faults.Resilience.attack ~trials:64 ~rng:(Rng.create ~seed:7)
                 ~pool g ~h ~k:3)))
  in
  (* the flat-core rows: the generator building through Graph.of_arrays,
     the binary decode path, and the unweighted 2-ECSS solve end to end *)
  let gen_hot n =
    plain
      (stage (fun () ->
           ignore (Gen.random_k_connected (Rng.create ~seed:42) n 2 ~extra:n)))
  in
  let ecss2u_hot n =
    let g = Graph.unit_weights (W.weighted_random ~n ~k:2) in
    plain (stage (fun () -> ignore (Ecss2_unweighted.solve g)))
  in
  let bin_decode_hot n =
    let s =
      Io.to_binary_string
        (Gen.random_k_connected (Rng.create ~seed:42) n 2 ~extra:n)
    in
    plain (stage (fun () -> ignore (Io.of_binary_string s)))
  in
  List.map
    (fun (name, build) ->
      ( name,
        fun () ->
          let staged, release = build () in
          (Test.make ~name staged, release) ))
    [
      ("hot/gen-n4096", fun () -> gen_hot 4096);
      ("hot/ecss2u-n4096", fun () -> ecss2u_hot 4096);
      ("hot/bin-decode-n4096", fun () -> bin_decode_hot 4096);
      ("hot/tap-aug-n2048", fun () -> tap_hot 2048);
      ("hot/tap-aug-n4096", fun () -> tap_hot 4096);
      ("hot/augk-k3-n96", fun () -> augk_hot 96 ~k:3);
      ("hot/mincut-par-j1", fun () -> mincut_par ~jobs:1);
      ("hot/mincut-par-j4", fun () -> mincut_par ~jobs:4);
      ("hot/resilience-par-j1", fun () -> resilience_par ~jobs:1);
      ("hot/resilience-par-j4", fun () -> resilience_par ~jobs:4);
    ]

(* hot kernels underneath everything *)
let kernel_tests =
  let g256 = W.weighted_random ~n:256 ~k:2 in
  let tree256 = Rooted_tree.bfs_tree g256 ~root:0 in
  [
    Test.make ~name:"kernel/mst-n256"
      (stage (fun () -> Mst.run (Rounds.create ()) (Rng.create ~seed:1) g256));
    Test.make ~name:"kernel/bfs-n256"
      (stage (fun () -> Prim.bfs_tree (Rounds.create ()) g256 ~root:0));
    Test.make ~name:"kernel/lambda-n256"
      (stage (fun () ->
           Kecss_connectivity.Edge_connectivity.lambda ~upper:3 g256));
    Test.make ~name:"kernel/min-cuts-n64"
      (stage
         (let g = W.weighted_random ~n:64 ~k:2 in
          let mst = Kecss_baselines.Greedy.kecss g ~k:1 in
          fun () ->
            Kecss_connectivity.Min_cut_enum.min_cuts ~mask:mst
              ~rng:(Rng.create ~seed:1) g));
    Test.make ~name:"kernel/lca-queries-n256"
      (stage (fun () ->
           let acc = ref 0 in
           for u = 0 to 255 do
             acc := !acc + Rooted_tree.lca tree256 u ((u * 37) mod 256)
           done;
           !acc));
    Test.make ~name:"kernel/wave-up-n256"
      (stage
         (let f = Forest.of_rooted_tree tree256 in
          fun () ->
            Prim.wave_up (Rounds.create ()) f ~value:(fun _ kids ->
                [| List.fold_left (fun a k -> a + k.(0)) 1 kids |])));
  ]

(* runs the microbenchmarks, prints the table and returns the
   (name, time/run ns) rows so the driver can record them into the
   benchmark history *)
let run_micro ?filter () =
  print_newline ();
  print_endline "################ W-micro — Bechamel wall-clock benchmarks";
  print_endline "# one Test.make per experiment table + the hot kernels";
  print_newline ();
  let eager =
    List.map (fun t -> (Test.name t, fun () -> (t, ignore)))
      (per_table_tests @ kernel_tests)
  in
  let selected =
    match filter with
    | None -> eager @ hot_tests ()
    | Some sub ->
      List.filter (fun (name, _) -> name_contains sub name) (eager @ hot_tests ())
  in
  if selected = [] then begin
    Printf.printf "no microbenchmark matches the filter\n";
    []
  end
  else begin
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.8) ~stabilize:false
      ~compaction:false ()
  in
  (* one row at a time, each fixture alive only while its row runs *)
  let rows =
    List.concat_map
      (fun (_, build) ->
        let test, release = build () in
        let raw =
          Benchmark.all cfg instances
            (Test.make_grouped ~name:"kecss" ~fmt:"%s/%s" [ test ])
        in
        release ();
        let results = Analyze.all ols Instance.monotonic_clock raw in
        Hashtbl.fold (fun k v acc -> (k, v) :: acc) results [])
      selected
    |> List.sort compare
  in
  Printf.printf "%-44s %16s %10s\n" "benchmark" "time/run" "r^2";
  Printf.printf "%s\n" (String.make 72 '-');
  let nproc = Domain.recommended_domain_count () in
  let timed =
    List.map
      (fun (name, ols_result) ->
        let time_ns =
          match Analyze.OLS.estimates ols_result with
          | Some [ t ] -> t
          | _ -> nan
        in
        let r2 =
          match Analyze.OLS.r_square ols_result with Some r -> r | None -> nan
        in
        (* a hot/*-jN row on fewer than N cores times pool overhead, not
           a speedup *)
        let note =
          match pool_jobs name with
          | Some jobs when nproc < jobs ->
            Printf.sprintf "  (pool overhead: nproc=%d < jobs=%d)" nproc jobs
          | _ -> ""
        in
        Printf.printf "%-44s %16s %10.4f%s\n" name (History.pretty_ns time_ns) r2
          note;
        (name, time_ns))
      rows
  in
  flush stdout;
  timed
  end

(* ------------------------------------------------------------------ *)
(* resilience table                                                    *)
(* ------------------------------------------------------------------ *)

(* every representative solution goes through the k−1-failure harness
   (lib/faults): a verified k-ECSS must read SURVIVES at 100% — anything
   else is a soundness regression, not a performance one *)
let run_resilience_table () =
  let module R = Kecss_faults.Resilience in
  let cases =
    [
      ( "ecss2-n64", 2,
        fun () ->
          let g = W.weighted_random ~n:64 ~k:2 in
          (g, (Ecss2.solve ~seed:1 g).Ecss2.solution) );
      ( "kecss-n32-k3", 3,
        fun () ->
          let g = W.weighted_random ~n:32 ~k:3 in
          (g, (Kecss.solve ~seed:1 g ~k:3).Kecss.solution) );
      ( "ecss3-n64", 3,
        fun () ->
          let g = W.unweighted_low_d ~n:64 in
          (g, (Ecss3.solve ~seed:1 g).Ecss3.solution) );
      ( "thurimella-n64-k3", 3,
        fun () ->
          let g = W.unweighted_low_d ~n:64 in
          ( g,
            (Kecss_baselines.Thurimella.sparse_certificate (Rng.create ~seed:1)
               g ~k:3)
              .Kecss_baselines.Thurimella.solution ) );
      ( "mst-as-2ecss-n64", 2,
        (* deliberately under-connected: a spanning tree claimed as a
           2-ECSS keeps the harness honest — it must find a witness *)
        fun () ->
          let g = W.weighted_random ~n:64 ~k:2 in
          (g, Kecss_baselines.Greedy.kecss g ~k:1) );
    ]
  in
  print_newline ();
  print_endline "################ R-resilience — k-1-failure survival";
  print_endline
    "# lib/faults harness over the representative solutions; tree row must \
     be KILLED";
  print_newline ();
  Printf.printf "%-20s %2s %3s %7s %9s %9s  %s\n" "solution" "k" "λ" "margin"
    "survival" "resid. λ" "verdict";
  Printf.printf "%s\n" (String.make 72 '-');
  List.iter
    (fun (name, k, make) ->
      let g, h = make () in
      let r = R.attack ~trials:32 ~rng:(Rng.create ~seed:7) g ~h ~k in
      Printf.printf "%-20s %2d %3d %7d %8.1f%% %9d  %s\n" name k
        r.R.lambda r.R.margin
        (100.0 *. r.R.survival_rate)
        r.R.worst_residual_lambda
        (if R.ok r then "SURVIVES" else "KILLED"))
    cases;
  flush stdout

(* ------------------------------------------------------------------ *)
(* serve tier: incremental maintenance vs from-scratch + wire latency  *)
(* ------------------------------------------------------------------ *)

module Maint = Kecss_serve.Maint
module Server = Kecss_serve.Server

type serve_session = {
  ss_jobs : int;
  ss_requests : int;
  ss_req_per_s : float;
  ss_ns_per_req : float;
  ss_latency : (string * Kecss_obs.Prof.Hist.t) list;
  ss_transcript : string;
}

type serve_run = {
  sv_n : int;
  sv_updates : int;
  sv_verified : int; (* gated updates whose post-state verified k-conn. *)
  sv_degraded : int; (* updates that left the live graph itself below k *)
  sv_incr_ns : float; (* mean incremental cascade cost per update *)
  sv_scratch_ns : float; (* mean from-scratch rebuild cost *)
  sv_ratio : float; (* incr/scratch: < 1 means incremental wins *)
  sv_sessions : serve_session list;
}

(* deterministic request script: delete/insert waves over distinct edges
   (every update succeeds), with periodic verify/stats and a final audit *)
let serve_script ~updates =
  let buf = Buffer.create 4096 in
  let req line = Buffer.add_string buf (Kecss_obs.Json.Frame.encode_string line) in
  for i = 0 to updates - 1 do
    let e = i mod 64 in
    let op = if i mod 128 < 64 then "delete" else "insert" in
    req (Printf.sprintf {|{"req":"update","op":"%s","edge":%d}|} op e);
    if i mod 8 = 7 then req {|{"req":"verify"}|};
    if i mod 16 = 15 then req {|{"req":"stats"}|}
  done;
  req {|{"req":"audit"}|};
  req {|{"req":"shutdown"}|};
  Buffer.contents buf

let serve_session ~g ~k ~jobs script =
  let saved = Kecss_par.Pool.default_jobs () in
  Kecss_par.Pool.set_default_jobs jobs;
  Fun.protect
    ~finally:(fun () -> Kecss_par.Pool.set_default_jobs saved)
    (fun () ->
      let srv = Server.create ~seed:1 g ~k in
      let out = Buffer.create (String.length script) in
      let pos = ref 0 in
      let read buf off len =
        let n = min len (String.length script - !pos) in
        Bytes.blit_string script !pos buf off n;
        pos := !pos + n;
        n
      in
      let requests =
        (* every script line is one frame: count the frames sent *)
        List.length
          (String.split_on_char '\n' script)
        / 2
      in
      let t0 = Kecss_obs.Prof.now_ns () in
      Server.run_session srv ~read ~write:(Buffer.add_string out);
      let elapsed = Kecss_obs.Prof.now_ns () -. t0 in
      {
        ss_jobs = jobs;
        ss_requests = requests;
        ss_req_per_s = float_of_int requests /. (elapsed /. 1e9);
        ss_ns_per_req = elapsed /. float_of_int requests;
        ss_latency = Server.latencies srv;
        ss_transcript = Buffer.contents out;
      })

let run_serve_tier ~jobs =
  (* acceptance scale: n >= 1024, >= 100 updates, every post-update
     solution gated through Verify.check_kecss *)
  let n = 1024 and k = 2 and updates = 128 in
  let g = W.weighted_random ~n ~k in
  let m = Graph.m g in
  (* 1. gated churn: correctness of the resident solution under churn *)
  let t = Maint.create g ~k in
  let rng = Rng.create ~seed:71 in
  let verified = ref 0 and degraded = ref 0 in
  for step = 1 to updates do
    let e = Rng.int rng m in
    let r =
      if Bitset.mem (Maint.live t) e then Maint.delete t e
      else Maint.insert t e
    in
    match r with
    | Error msg -> failwith (Printf.sprintf "serve tier step %d: %s" step msg)
    | Ok None -> failwith "gated update returned no outcome"
    | Ok (Some o) ->
      if o.Maint.degraded then incr degraded
      else if o.Maint.report.Kecss_connectivity.Verify.ok then incr verified
      else
        failwith
          (Printf.sprintf
             "serve tier step %d: solution failed verification on a \
              k-connected live graph"
             step)
  done;
  (* 2. incremental cascade priced against the from-scratch rebuild,
     both without the verification gate *)
  let t2 = Maint.create g ~k in
  let rng2 = Rng.create ~seed:71 in
  let incr_total = ref 0.0 in
  for _ = 1 to updates do
    let e = Rng.int rng2 m in
    let del = Bitset.mem (Maint.live t2) e in
    let t0 = Kecss_obs.Prof.now_ns () in
    (match
       if del then Maint.delete ~gate_check:false t2 e
       else Maint.insert ~gate_check:false t2 e
     with
    | Ok _ -> ()
    | Error msg -> failwith msg);
    incr_total := !incr_total +. (Kecss_obs.Prof.now_ns () -. t0)
  done;
  let incr_ns = !incr_total /. float_of_int updates in
  let rebuilds = 10 in
  let t0 = Kecss_obs.Prof.now_ns () in
  for _ = 1 to rebuilds do
    Maint.force_rebuild t2
  done;
  let scratch_ns =
    (Kecss_obs.Prof.now_ns () -. t0) /. float_of_int rebuilds
  in
  (* 3. wire-protocol sessions at jobs 1 and N; a smaller instance so
     the per-request verification gate doesn't dominate the tier's
     wall-clock (the acceptance-scale churn above already ran at n) *)
  let gs = W.weighted_random ~n:256 ~k in
  let script = serve_script ~updates:192 in
  let sessions =
    List.map
      (fun j -> serve_session ~g:gs ~k ~jobs:j script)
      (List.sort_uniq compare [ 1; jobs ])
  in
  (match sessions with
  | a :: (_ :: _ as rest) ->
    List.iter
      (fun b ->
        if a.ss_transcript <> b.ss_transcript then
          failwith
            (Printf.sprintf
               "serve transcripts differ between jobs %d and %d" a.ss_jobs
               b.ss_jobs))
      rest
  | _ -> ());
  {
    sv_n = n;
    sv_updates = updates;
    sv_verified = !verified;
    sv_degraded = !degraded;
    sv_incr_ns = incr_ns;
    sv_scratch_ns = scratch_ns;
    sv_ratio = (if scratch_ns > 0.0 then incr_ns /. scratch_ns else Float.nan);
    sv_sessions = sessions;
  }

let print_serve_tier sv =
  let module Obs = Kecss_obs in
  Printf.printf
    "\nserve tier: n=%d, %d gated updates (%d verified, %d degraded)\n"
    sv.sv_n sv.sv_updates sv.sv_verified sv.sv_degraded;
  Printf.printf
    "  incremental update %s vs from-scratch rebuild %s  (ratio %.4f, %.0fx \
     speedup)\n"
    (History.pretty_ns sv.sv_incr_ns)
    (History.pretty_ns sv.sv_scratch_ns)
    sv.sv_ratio
    (if sv.sv_ratio > 0.0 then 1.0 /. sv.sv_ratio else Float.nan);
  List.iter
    (fun s ->
      Printf.printf "  session @ jobs=%d: %d requests, %.0f req/s\n" s.ss_jobs
        s.ss_requests s.ss_req_per_s;
      Obs.Export.latency_table Format.std_formatter
        ~title:(Printf.sprintf "request latency @ jobs=%d" s.ss_jobs)
        s.ss_latency;
      Format.pp_print_flush Format.std_formatter ())
    sv.sv_sessions;
  flush stdout

let serve_json sv =
  let module Obs = Kecss_obs in
  Obs.Json.Obj
    [
      ("n", Obs.Json.Int sv.sv_n);
      ("updates", Obs.Json.Int sv.sv_updates);
      ("verified", Obs.Json.Int sv.sv_verified);
      ("degraded", Obs.Json.Int sv.sv_degraded);
      ("incremental_ns", Obs.Json.Float sv.sv_incr_ns);
      ("from_scratch_ns", Obs.Json.Float sv.sv_scratch_ns);
      ("incr_over_scratch", Obs.Json.Float sv.sv_ratio);
      ( "sessions",
        Obs.Json.List
          (List.map
             (fun s ->
               Obs.Json.Obj
                 [
                   ("jobs", Obs.Json.Int s.ss_jobs);
                   ("requests", Obs.Json.Int s.ss_requests);
                   ("req_per_s", Obs.Json.Float s.ss_req_per_s);
                   ( "latency",
                     Obs.Json.Obj
                       (List.filter_map
                          (fun (kind, h) ->
                            if Obs.Prof.Hist.count h > 0 then
                              Some (kind, Obs.Prof.Hist.to_json h)
                            else None)
                          s.ss_latency) );
                 ])
             sv.sv_sessions) );
    ]

(* wall-clock rows for the history: ns-like floats where growth is bad,
   so History.compare's REGRESSION judgement applies directly (the
   ratio row guards the incremental-vs-scratch speedup itself) *)
let serve_history_rows sv =
  [
    ("serve/update-incremental", sv.sv_incr_ns);
    ("serve/rebuild-from-scratch", sv.sv_scratch_ns);
    ("serve/incr-over-scratch-ratio", sv.sv_ratio);
  ]
  @ List.map
      (fun s ->
        (Printf.sprintf "serve/session-ns-per-req@%d" s.ss_jobs, s.ss_ns_per_req))
      sv.sv_sessions

(* ------------------------------------------------------------------ *)
(* sparsify tier                                                       *)
(* ------------------------------------------------------------------ *)

module Sparsify = Kecss_sparsify.Sparsify

type sparsify_run = {
  sx_mode : string;
  sx_kept : int;
  sx_retained : float; (* kept / m, in [0, 1] *)
  sx_sparsify_ns : float; (* the preprocessing stage alone *)
  sx_total_ns : float; (* sparsify + solve on the sub + lift *)
  sx_speedup : float; (* base_ns / total_ns: > 1 means the front-end pays *)
  sx_weight : int;
  sx_ok : bool;
}

type sparsify_tier = {
  sx_n : int;
  sx_m : int;
  sx_base_ns : float; (* unsparsified end-to-end solve *)
  sx_base_weight : int;
  sx_runs : sparsify_run list;
}

(* end-to-end wall-clock with and without the sparsification front-end on
   the acceptance-scale dense instance; every sparsified solution is
   verified against the original graph and the tier hard-fails if the
   gate ever trips *)
let run_sparsify_tier ~modes =
  let k = 2 in
  let g = Gen.random_connected (Rng.create ~seed:42) 1024 0.25 in
  let n = Graph.n g and m = Graph.m g in
  let time f =
    let t0 = Kecss_obs.Prof.now_ns () in
    let r = f () in
    (r, Kecss_obs.Prof.now_ns () -. t0)
  in
  let base, base_ns = time (fun () -> Ecss2.solve ~seed:1 g) in
  let base_report =
    Kecss_connectivity.Verify.check_kecss g base.Ecss2.solution ~k
  in
  if not base_report.Kecss_connectivity.Verify.ok then
    failwith "sparsify tier: baseline solve failed verification";
  let runs =
    List.map
      (fun mode ->
        let sp, sparsify_ns =
          time (fun () -> Sparsify.run (Rng.create ~seed:1) g ~k ~mode)
        in
        let sol, rest_ns =
          time (fun () ->
              let r = Ecss2.solve ~seed:1 sp.Sparsify.sub in
              Sparsify.lift sp r.Ecss2.solution)
        in
        let total_ns = sparsify_ns +. rest_ns in
        let report = Kecss_connectivity.Verify.check_kecss g sol ~k in
        if not report.Kecss_connectivity.Verify.ok then
          failwith
            (Printf.sprintf
               "sparsify tier: mode %s failed verification against the \
                original graph"
               (Sparsify.mode_to_string mode));
        {
          sx_mode = Sparsify.mode_to_string mode;
          sx_kept = sp.Sparsify.edges_out;
          sx_retained = float_of_int sp.Sparsify.edges_out /. float_of_int m;
          sx_sparsify_ns = sparsify_ns;
          sx_total_ns = total_ns;
          sx_speedup = (if total_ns > 0.0 then base_ns /. total_ns else Float.nan);
          sx_weight = Graph.mask_weight g sol;
          sx_ok = report.Kecss_connectivity.Verify.ok;
        })
      modes
  in
  {
    sx_n = n;
    sx_m = m;
    sx_base_ns = base_ns;
    sx_base_weight = Graph.mask_weight g base.Ecss2.solution;
    sx_runs = runs;
  }

let print_sparsify_tier sx =
  Printf.printf
    "\nsparsify tier: dense G(n=%d, p=0.25), m=%d, k=2; base solve %s \
     (weight %d)\n"
    sx.sx_n sx.sx_m
    (History.pretty_ns sx.sx_base_ns)
    sx.sx_base_weight;
  List.iter
    (fun r ->
      Printf.printf
        "  %-8s kept %6d/%d (%4.1f%%), sparsify %s, end-to-end %s \
         (%.2fx speedup), weight %d, verified %s\n"
        r.sx_mode r.sx_kept sx.sx_m
        (100.0 *. r.sx_retained)
        (History.pretty_ns r.sx_sparsify_ns)
        (History.pretty_ns r.sx_total_ns)
        r.sx_speedup r.sx_weight
        (if r.sx_ok then "yes" else "NO");
      if r.sx_retained > 0.40 && r.sx_mode = "cert" then
        failwith "sparsify tier: certificate retained more than 40% of edges")
    sx.sx_runs;
  flush stdout

let sparsify_json sx =
  let module Obs = Kecss_obs in
  Obs.Json.Obj
    [
      ("n", Obs.Json.Int sx.sx_n);
      ("m", Obs.Json.Int sx.sx_m);
      ("base_ns", Obs.Json.Float sx.sx_base_ns);
      ("base_weight", Obs.Json.Int sx.sx_base_weight);
      ( "modes",
        Obs.Json.List
          (List.map
             (fun r ->
               Obs.Json.Obj
                 [
                   ("mode", Obs.Json.Str r.sx_mode);
                   ("kept", Obs.Json.Int r.sx_kept);
                   ("retained", Obs.Json.Float r.sx_retained);
                   ("sparsify_ns", Obs.Json.Float r.sx_sparsify_ns);
                   ("total_ns", Obs.Json.Float r.sx_total_ns);
                   ("speedup", Obs.Json.Float r.sx_speedup);
                   ("weight", Obs.Json.Int r.sx_weight);
                   ("verified", Obs.Json.Bool r.sx_ok);
                 ])
             sx.sx_runs) );
    ]

(* history rows are shaped so growth is bad and History.compare's
   REGRESSION judgement applies directly: end-to-end ns, the retained
   fraction, and total/base (the inverse of the speedup) *)
let sparsify_history_rows sx =
  ("sparsify/solve-dense-base", sx.sx_base_ns)
  :: List.concat_map
       (fun r ->
         [
           (Printf.sprintf "sparsify/solve-dense-%s" r.sx_mode, r.sx_total_ns);
           (Printf.sprintf "sparsify/retained-%s" r.sx_mode, r.sx_retained);
           ( Printf.sprintf "sparsify/%s-over-base-ratio" r.sx_mode,
             if sx.sx_base_ns > 0.0 then r.sx_total_ns /. sx.sx_base_ns
             else Float.nan );
         ])
       sx.sx_runs

(* ------------------------------------------------------------------ *)
(* scale tier: the flat-core pipeline at sweep sizes                   *)
(* ------------------------------------------------------------------ *)

type scale_row = {
  sc_n : int;
  sc_m : int;
  sc_gen_ns : float; (* seeded generation through Graph.of_arrays *)
  sc_encode_ns : float; (* kecss-bin/1 encode *)
  sc_decode_ns : float; (* kecss-bin/1 decode — the binary load path *)
  sc_parse_ns : float; (* text parse of the same graph *)
  sc_solve_ns : float; (* unweighted 2-ECSS end to end *)
  sc_solve_words : float; (* words allocated by the solve, at jobs = 1 *)
  sc_arena_words : int; (* the engine's arena capacity after the solve *)
  sc_rounds : int;
  sc_messages : int;
  sc_edges : int; (* solution edges *)
}

(* Each sweep size runs the whole million-vertex pipeline once:
   generate -> binary encode/decode (checked against the text codec) ->
   solve -> verify.  Everything is seeded and forced to jobs = 1, and the
   solve starts from empty message arenas, so the rounds, messages,
   allocated-words and arena-words rows are deterministic; the tier
   hard-fails on any codec mismatch or verification failure. *)
let run_scale_tier ~ns =
  let saved = Kecss_par.Pool.default_jobs () in
  Kecss_par.Pool.set_default_jobs 1;
  Fun.protect
    ~finally:(fun () -> Kecss_par.Pool.set_default_jobs saved)
  @@ fun () ->
  let time f =
    let t0 = Kecss_obs.Prof.now_ns () in
    let r = f () in
    (r, Kecss_obs.Prof.now_ns () -. t0)
  in
  List.map
    (fun n ->
      let g, gen_ns =
        time (fun () ->
            Gen.random_k_connected (Rng.create ~seed:42) n 2 ~extra:n)
      in
      let bin, encode_ns = time (fun () -> Io.to_binary_string g) in
      let g2, decode_ns = time (fun () -> Io.of_binary_string bin) in
      let txt = Io.to_string g in
      let g3, parse_ns = time (fun () -> Io.of_string txt) in
      if Io.to_string g2 <> txt || Io.to_string g3 <> txt then
        failwith
          (Printf.sprintf "scale tier: n=%d codec round-trip mismatch" n);
      let ledger = Rounds.create () in
      Network.release_arenas ();
      Gc.full_major ();
      let a0 = Kecss_obs.Prof.allocated_words () in
      let r, solve_ns =
        time (fun () -> Ecss2_unweighted.solve_with ledger g)
      in
      Gc.full_major ();
      let solve_words = Kecss_obs.Prof.allocated_words () -. a0 in
      let arena_words = Network.arena_words () in
      let h = r.Ecss2_unweighted.h in
      let report = Kecss_connectivity.Verify.check_kecss ~cap:2 g h ~k:2 in
      if not report.Kecss_connectivity.Verify.ok then
        failwith
          (Printf.sprintf "scale tier: n=%d solution failed verification" n);
      {
        sc_n = n;
        sc_m = Graph.m g;
        sc_gen_ns = gen_ns;
        sc_encode_ns = encode_ns;
        sc_decode_ns = decode_ns;
        sc_parse_ns = parse_ns;
        sc_solve_ns = solve_ns;
        sc_solve_words = solve_words;
        sc_arena_words = arena_words;
        sc_rounds = Rounds.total ledger;
        sc_messages = Rounds.total_messages ledger;
        sc_edges = Bitset.cardinal h;
      })
    ns

let print_scale_tier rows =
  print_newline ();
  print_endline
    "################ S-scale — generate/codec/solve n-sweep (jobs=1)";
  print_endline
    "# unweighted 2-ECSS through the binary codec, verified at every size";
  print_newline ();
  Printf.printf "%8s %9s %9s %9s %9s %9s %10s %12s %12s %8s %10s %9s\n" "n"
    "m" "gen" "encode" "decode" "parse" "solve" "alloc-words" "arena-words"
    "rounds" "messages" "edges";
  Printf.printf "%s\n" (String.make 125 '-');
  List.iter
    (fun r ->
      Printf.printf "%8d %9d %9s %9s %9s %9s %10s %12.0f %12d %8d %10d %9d\n"
        r.sc_n r.sc_m
        (History.pretty_ns r.sc_gen_ns)
        (History.pretty_ns r.sc_encode_ns)
        (History.pretty_ns r.sc_decode_ns)
        (History.pretty_ns r.sc_parse_ns)
        (History.pretty_ns r.sc_solve_ns)
        r.sc_solve_words r.sc_arena_words r.sc_rounds r.sc_messages r.sc_edges)
    rows;
  (match rows with
  | r :: _ when r.sc_decode_ns > 0.0 ->
    Printf.printf "# binary decode vs text parse at n=%d: %.1fx\n" r.sc_n
      (r.sc_parse_ns /. r.sc_decode_ns)
  | _ -> ());
  flush stdout

let scale_json rows =
  let module Obs = Kecss_obs in
  Obs.Json.List
    (List.map
       (fun r ->
         Obs.Json.Obj
           [
             ("n", Obs.Json.Int r.sc_n);
             ("m", Obs.Json.Int r.sc_m);
             ("gen_ns", Obs.Json.Float r.sc_gen_ns);
             ("encode_ns", Obs.Json.Float r.sc_encode_ns);
             ("decode_ns", Obs.Json.Float r.sc_decode_ns);
             ("parse_ns", Obs.Json.Float r.sc_parse_ns);
             ("solve_ns", Obs.Json.Float r.sc_solve_ns);
             ("solve_allocated_words", Obs.Json.Float r.sc_solve_words);
             ("arena_words", Obs.Json.Int r.sc_arena_words);
             ("rounds", Obs.Json.Int r.sc_rounds);
             ("messages", Obs.Json.Int r.sc_messages);
             ("solution_edges", Obs.Json.Int r.sc_edges);
           ])
       rows)

(* growth-is-bad rows, so History.compare's REGRESSION judgement applies
   directly; rounds/messages/alloc-words/arena-words are deterministic at
   jobs = 1 and gate CI (the arenas are off the heap, so only their own
   row sees them grow), the ns rows are wall-clock and only tracked
   locally like the micros (CI runs --no-micro, which drops them here
   too) *)
let scale_history_rows ~wallclock rows =
  List.concat_map
    (fun r ->
      (if wallclock then
         [
           (Printf.sprintf "scale/gen-n%d" r.sc_n, r.sc_gen_ns);
           (Printf.sprintf "scale/load-binary-n%d" r.sc_n, r.sc_decode_ns);
           (Printf.sprintf "scale/parse-text-n%d" r.sc_n, r.sc_parse_ns);
           (Printf.sprintf "scale/solve-n%d" r.sc_n, r.sc_solve_ns);
         ]
       else [])
      @ [
          ( Printf.sprintf "scale/solve-n%d-allocwords" r.sc_n,
            r.sc_solve_words );
          ( Printf.sprintf "scale/solve-n%d-arenawords" r.sc_n,
            float_of_int r.sc_arena_words );
          ( Printf.sprintf "scale/solve-n%d-rounds" r.sc_n,
            float_of_int r.sc_rounds );
          ( Printf.sprintf "scale/solve-n%d-messages" r.sc_n,
            float_of_int r.sc_messages );
        ])
    rows

(* ------------------------------------------------------------------ *)
(* metrics JSON                                                        *)
(* ------------------------------------------------------------------ *)

(* One representative instrumented solve per algorithm — the
   simulated-cost side of the same regression story bechamel tells for
   real time. Shared by the metrics-JSON dump and the benchmark history:
   both record the same runs. *)
type rep_run = {
  rr_name : string;
  rr_ledger : Rounds.t;
  rr_metrics : Kecss_obs.Metrics.t;
  rr_weight : int;
  rr_lower_bound : int;
  rr_allocated : float; (* words allocated by the solve, at jobs = 1 *)
  rr_causal : Kecss_obs.Causal.report;
      (* critical-path attribution of a second, identical solve — the
         recorder itself allocates, so it must stay out of the measured
         run to keep allocated_words comparable with older history
         entries *)
}

(* The representative solves are forced to [jobs = 1]: Gc.quick_stat
   counts the calling domain's allocations only, so a fixed-seed solve
   allocates a stable number of words (reproducible to within a few
   dozen words of runtime noise) only when nothing runs on other
   domains — which is what lets history --compare treat allocation
   nearly like rounds rather than like wall time. Simulated costs are
   jobs-invariant anyway, so the rows lose nothing. *)
let representative_solves ?(prof = Kecss_obs.Prof.noop) () =
  let saved_jobs = Kecss_par.Pool.default_jobs () in
  Kecss_par.Pool.set_default_jobs 1;
  Fun.protect
    ~finally:(fun () -> Kecss_par.Pool.set_default_jobs saved_jobs)
  @@ fun () ->
  let run rr_name solve =
    let rr_metrics = Kecss_obs.Metrics.create () in
    let rr_ledger = Rounds.create ~metrics:rr_metrics ~prof () in
    (* the major_words counter is only settled at collection boundaries
       (the runtime updates it lazily, at slices), so flush with a full
       major before each reading — otherwise the total drifts with GC
       timing and the history comparison sees phantom deltas *)
    Gc.full_major ();
    let a0 = Kecss_obs.Prof.allocated_words () in
    let rr_weight, rr_lower_bound = solve rr_ledger in
    Gc.full_major ();
    let rr_allocated = Kecss_obs.Prof.allocated_words () -. a0 in
    let rr_causal =
      let causal = Kecss_obs.Causal.create () in
      ignore (solve (Rounds.create ~causal ()));
      Kecss_obs.Causal.analyze causal
    in
    {
      rr_name; rr_ledger; rr_metrics; rr_weight; rr_lower_bound; rr_allocated;
      rr_causal;
    }
  in
  [
    run "ecss2-n64" (fun ledger ->
        let g = W.weighted_random ~n:64 ~k:2 in
        let r = Ecss2.solve_with ledger (Rng.create ~seed:1) g in
        ( Graph.mask_weight g r.Ecss2.solution,
          Kecss_baselines.Lower_bound.best g ~k:2 ));
    run "kecss-n32-k3" (fun ledger ->
        let g = W.weighted_random ~n:32 ~k:3 in
        let r = Kecss.solve_with ledger (Rng.create ~seed:1) g ~k:3 in
        ( Graph.mask_weight g r.Kecss.solution,
          Kecss_baselines.Lower_bound.best g ~k:3 ));
    run "ecss3-n64" (fun ledger ->
        let g = W.unweighted_low_d ~n:64 in
        let r = Ecss3.solve_with ledger (Rng.create ~seed:1) g in
        ( Graph.mask_weight g r.Ecss3.solution,
          Kecss_baselines.Lower_bound.best g ~k:3 ));
  ]

(* Utilization snapshot of the default pool, as (busy_ns, tasks) pairs in
   domain order plus the pool's lifetime. Taken before anything resizes
   the pool (resizing recreates it and drops the counters). *)
let pool_snapshot () =
  let pool = Kecss_par.Pool.default () in
  ( Array.map
      (fun (s : Kecss_par.Pool.stat) -> (s.Kecss_par.Pool.busy_ns, s.tasks))
      (Kecss_par.Pool.stats pool),
    Kecss_par.Pool.lifetime_ns pool )

(* Wall-clock profile section for bench-metrics.json / the history entry:
   always carries the machine's core count and the default pool's
   utilization snapshot, plus per-span timings when --profile is on.
   Recorded verbatim, never compared. *)
let profile_json ~jobs ~pool_stats:(pairs, lifetime_ns) prof =
  let module Obs = Kecss_obs in
  let pool_json = Obs.Export.pool_to_json ~jobs ~lifetime_ns pairs in
  let spans =
    if Obs.Prof.enabled prof then [ ("spans", Obs.Prof.to_json prof) ] else []
  in
  Obs.Json.Obj
    (("nproc", Obs.Json.Int (Domain.recommended_domain_count ()))
    :: ("pool", pool_json) :: spans)

let write_metrics_json ?serve ?sparsify ?scale ~jobs ~profile runs path =
  let module Obs = Kecss_obs in
  let categories kvs =
    Obs.Json.Obj (List.map (fun (k, v) -> (k, Obs.Json.Int v)) kvs)
  in
  let solves =
    List.map
      (fun rr ->
        ( rr.rr_name,
          Obs.Json.Obj
            [
              ( "engine",
                Obs.Metrics.summary_to_json (Obs.Metrics.summary rr.rr_metrics)
              );
              ("rounds_by_category", categories (Rounds.by_category rr.rr_ledger));
              ( "messages_by_category",
                categories (Rounds.messages_by_category rr.rr_ledger) );
              ( "causal",
                Obs.Json.Obj
                  [
                    ( "critical_rounds",
                      Obs.Json.Int rr.rr_causal.Obs.Causal.rp_critical_rounds );
                    ( "longest_chain",
                      Obs.Json.Int rr.rr_causal.Obs.Causal.rp_critical );
                  ] );
            ] ))
      runs
  in
  let doc =
    Obs.Json.Obj
      ([
         ("schema", Obs.Json.Str "kecss-bench-metrics/1");
         ("jobs", Obs.Json.Int jobs);
         ("profile", profile);
         ("solves", Obs.Json.Obj solves);
       ]
      @ (match serve with
        | None -> []
        | Some sv -> [ ("serve", serve_json sv) ])
      @ (match sparsify with
        | None -> []
        | Some sx -> [ ("sparsify", sparsify_json sx) ])
      @
      match scale with
      | None -> []
      | Some rows -> [ ("scale", scale_json rows) ])
  in
  let oc = open_out path in
  output_string oc (Obs.Json.to_string doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "telemetry for representative solves -> %s\n" path

let history_entry ?serve ?sparsify ?scale ~scale_wallclock ~rev ~jobs ~profile
    micro_rows runs =
  {
    History.rev;
    jobs;
    tests =
      List.filter
        (fun (_, ns) -> not (Float.is_nan ns))
        (micro_rows
        @ (match serve with None -> [] | Some sv -> serve_history_rows sv)
        @ (match sparsify with
          | None -> []
          | Some sx -> sparsify_history_rows sx)
        @
        match scale with
        | None -> []
        | Some rows -> scale_history_rows ~wallclock:scale_wallclock rows);
    experiments =
      List.map
        (fun rr ->
          ( rr.rr_name,
            {
              History.rounds = Rounds.total rr.rr_ledger;
              messages = Rounds.total_messages rr.rr_ledger;
              weight = rr.rr_weight;
              lower_bound = rr.rr_lower_bound;
              ratio =
                (if rr.rr_lower_bound > 0 then
                   float_of_int rr.rr_weight /. float_of_int rr.rr_lower_bound
                 else Float.nan);
              allocated_words = rr.rr_allocated;
              critical_path = rr.rr_causal.Kecss_obs.Causal.rp_critical_rounds;
            } ))
        runs;
    profile = Some profile;
  }

(* ------------------------------------------------------------------ *)
(* driver                                                              *)
(* ------------------------------------------------------------------ *)

type opts = {
  exps : string list;
  quick : bool;
  micro_only : bool;
  no_micro : bool;
  micro_filter : string option;
  mpath : string option;
  history_out : string option;
  rev : string option;
  compare_with : string option;
  threshold : float;
  jobs : int option;
  profile : bool;
  sparsify : string option; (* restrict the sparsify tier: cert | spanner *)
}

let usage =
  "usage: main.exe [--quick] [--exp ID]... [--micro-only] [--no-micro]\n\
  \       [--micro-filter SUBSTRING] [--metrics-out FILE]\n\
  \       [--history-out FILE] [--rev REV] [--jobs N] [--profile]\n\
  \       [--compare OLD.json] [--threshold FRACTION] [--sparsify MODE]\n"

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse o = function
    | [] -> { o with exps = List.rev o.exps }
    | "--exp" :: id :: rest -> parse { o with exps = id :: o.exps } rest
    | "--quick" :: rest -> parse { o with quick = true } rest
    | "--micro-only" :: rest -> parse { o with micro_only = true } rest
    | "--no-micro" :: rest -> parse { o with no_micro = true } rest
    | "--micro-filter" :: sub :: rest ->
      parse { o with micro_filter = Some sub } rest
    | "--metrics-out" :: path :: rest -> parse { o with mpath = Some path } rest
    | "--history-out" :: path :: rest ->
      parse { o with history_out = Some path } rest
    | "--rev" :: rev :: rest -> parse { o with rev = Some rev } rest
    | "--compare" :: path :: rest ->
      parse { o with compare_with = Some path } rest
    | "--threshold" :: v :: rest -> (
      match float_of_string_opt v with
      | Some t when t >= 0.0 -> parse { o with threshold = t } rest
      | _ ->
        Printf.eprintf "--threshold expects a non-negative fraction\n%s" usage;
        exit 2)
    | "--jobs" :: v :: rest -> (
      match int_of_string_opt v with
      | Some j when j >= 1 -> parse { o with jobs = Some j } rest
      | _ ->
        Printf.eprintf "--jobs expects an integer >= 1\n%s" usage;
        exit 2)
    | "--profile" :: rest -> parse { o with profile = true } rest
    | "--sparsify" :: m :: rest when List.mem m [ "cert"; "spanner"; "both" ] ->
      parse { o with sparsify = (if m = "both" then None else Some m) } rest
    | "--sparsify" :: _ ->
      Printf.eprintf "--sparsify expects cert, spanner or both\n%s" usage;
      exit 2
    | arg :: _ ->
      Printf.eprintf "unknown argument %s\n%s" arg usage;
      exit 2
  in
  let o =
    parse
      {
        exps = [];
        quick = false;
        micro_only = false;
        no_micro = false;
        micro_filter = None;
        mpath = None;
        history_out = None;
        rev = None;
        compare_with = None;
        threshold = 0.10;
        jobs = None;
        profile = false;
        sparsify = None;
      }
      args
  in
  (match o.jobs with
  | Some j -> Kecss_par.Pool.set_default_jobs j
  | None -> ());
  let jobs = Kecss_par.Pool.default_jobs () in
  let prof =
    if o.profile then Kecss_obs.Prof.create () else Kecss_obs.Prof.noop
  in
  if o.profile then
    (* route the experiments' ledgers through the profiler too, so the
       span table covers the reproduction tables, not just the
       representative solves *)
    E.set_probe (Kecss_obs.Probe.create ~prof ()) ~hook:(fun _ -> None);
  if not o.micro_only then begin
    let targets =
      match o.exps with
      | [] -> if o.quick then List.filter (fun e -> e.E.quick) E.all else E.all
      | ids ->
        List.map
          (fun id ->
            match E.find id with
            | Some e -> e
            | None ->
              Printf.eprintf "unknown experiment id: %s\n" id;
              exit 2)
          ids
    in
    List.iter (fun e -> ignore (E.run_and_print e)) targets;
    run_resilience_table ()
  end;
  let serve =
    if o.micro_only then None
    else begin
      let sv = run_serve_tier ~jobs in
      print_serve_tier sv;
      Some sv
    end
  in
  let sparsify =
    if o.micro_only then None
    else begin
      let modes =
        match o.sparsify with
        | Some "cert" -> [ Sparsify.Certificate ]
        | Some "spanner" -> [ Sparsify.Spanner ]
        | _ -> [ Sparsify.Certificate; Sparsify.Spanner ]
      in
      let sx = run_sparsify_tier ~modes in
      print_sparsify_tier sx;
      Some sx
    end
  in
  let scale =
    if o.micro_only then None
    else begin
      let ns =
        if o.quick then [ 16384; 65536 ] else [ 16384; 65536; 262144 ]
      in
      let rows = run_scale_tier ~ns in
      print_scale_tier rows;
      Some rows
    end
  in
  let micro_rows =
    if (not o.no_micro) || o.micro_only then run_micro ?filter:o.micro_filter ()
    else []
  in
  (* snapshot pool utilization before the representative solves: they
     force the default pool to jobs = 1 (see representative_solves),
     which recreates the pool and would drop the counters accumulated by
     the experiments above *)
  let ((_, lifetime_ns) as pool_stats) = pool_snapshot () in
  let runs = representative_solves ~prof () in
  let profile = profile_json ~jobs ~pool_stats prof in
  if o.profile then begin
    Kecss_obs.Export.prof_table Format.std_formatter prof;
    Kecss_obs.Export.pool_table Format.std_formatter ~jobs ~lifetime_ns
      (fst pool_stats);
    (* flush: write_metrics_json prints via Printf, a different buffer *)
    Format.pp_print_newline Format.std_formatter ()
  end;
  write_metrics_json ?serve ?sparsify ?scale ~jobs ~profile runs
    (Option.value o.mpath ~default:"bench-metrics.json");
  let rev = Option.value o.rev ~default:(History.default_rev ()) in
  let entry =
    history_entry ?serve ?sparsify ?scale
      ~scale_wallclock:((not o.no_micro) || o.micro_only)
      ~rev ~jobs ~profile micro_rows runs
  in
  (* --quick runs are the CI-tracked configuration, so they always append
     to the history; otherwise history is opt-in via --history-out *)
  (match
     ( o.history_out,
       if o.quick then Some (History.default_path ~rev) else None )
   with
  | Some path, _ | None, Some path ->
    History.append ~path entry;
    Printf.printf "benchmark history entry (rev %s) -> %s\n" rev path
  | None, None -> ());
  match o.compare_with with
  | None -> ()
  | Some old_path -> (
    match History.load old_path with
    | Error msg ->
      Printf.eprintf "cannot load %s: %s\n" old_path msg;
      exit 2
    | Ok [] ->
      Printf.eprintf "cannot compare: %s has no entries\n" old_path;
      exit 2
    | Ok entries ->
      let old_e = List.nth entries (List.length entries - 1) in
      print_newline ();
      let regressions =
        History.compare ~threshold:o.threshold ~old_e ~new_e:entry
      in
      if regressions > 0 then begin
        Printf.printf "\n%d metric(s) regressed beyond %.0f%%\n" regressions
          (100.0 *. o.threshold);
        exit 1
      end
      else Printf.printf "\nno regressions beyond %.0f%%\n"
          (100.0 *. o.threshold))
