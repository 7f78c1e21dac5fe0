(* The batch workloads: every operation is load → solve → verify on a
   seeded fixture file, the way [kecss solve] runs it. *)

open Kecss_graph
open Kecss_congest
open Kecss_core
module Verify = Kecss_connectivity.Verify
module Prof = Kecss_obs.Prof
module Metrics = Kecss_obs.Metrics

type workload = {
  name : string;
  k : int;
  n : int;
  instances : int;
      (** seeded graphs per run: averaging over several instances keeps
          a run's figures from hanging on one graph's luck *)
  gen : Rng.t -> int -> Graph.t;
  solve : Rounds.t -> Rng.t -> Graph.t -> Bitset.t * (string * float) list;
      (** the solution and the solver's own iteration counters *)
}

let weighted rng n g = Weights.uniform rng ~lo:1 ~hi:(n * n) g

let workloads =
  [
    {
      name = "ecss2u-large";
      k = 2;
      n = 1 lsl 16;
      instances = 6;
      gen = (fun rng n -> Gen.random_k_connected rng n 2 ~extra:n);
      solve =
        (fun ledger _ g ->
          ((Ecss2_unweighted.solve_with ledger g).Ecss2_unweighted.h, []));
    };
    {
      name = "ecss2-weighted";
      k = 2;
      n = 2048;
      instances = 16;
      gen =
        (fun rng n -> weighted rng n (Gen.random_k_connected rng n 2 ~extra:(2 * n)));
      solve =
        (fun ledger rng g ->
          let r = Ecss2.solve_with ledger rng g in
          let tap = r.Ecss2.tap in
          let cands, added =
            List.fold_left
              (fun (c, a) it -> (c + it.Tap.candidates, a + it.Tap.added))
              (0, 0) tap.Tap.trace
          in
          ( r.Ecss2.solution,
            [
              ("tap.iterations", float_of_int tap.Tap.iterations);
              ( "tap.candidates_per_added",
                Stats.ratio (float_of_int cands) (float_of_int added) );
            ] ));
    };
    {
      name = "kecss-k3";
      k = 3;
      n = 96;
      instances = 12;
      gen =
        (fun rng n -> weighted rng n (Gen.random_k_connected rng n 3 ~extra:(2 * n)));
      solve =
        (fun ledger rng g ->
          let r = Kecss.solve_with ledger rng g ~k:3 in
          ( r.Kecss.solution,
            [
              ( "augk.iterations",
                float_of_int
                  (List.fold_left (fun a l -> a + l.Kecss.iterations) 0 r.Kecss.levels) );
            ] ));
    };
    {
      name = "ecss3-unweighted";
      k = 3;
      n = 96;
      instances = 14;
      gen = (fun rng n -> Gen.random_k_connected rng n 3 ~extra:(3 * n));
      solve =
        (fun ledger rng g ->
          let r = Ecss3.solve_with ledger rng g in
          ( r.Ecss3.solution,
            [
              ("ecss3.iterations", float_of_int r.Ecss3.iterations);
              ("ecss3.repaired", float_of_int r.Ecss3.repaired);
            ] ));
    };
  ]

(* per-layer metrics that belong to other workloads read 0 here *)
let not_measured =
  [
    "tap.iterations"; "tap.candidates_per_added"; "augk.iterations";
    "ecss3.iterations"; "ecss3.repaired"; "serve.requests"; "serve.req_per_s";
    "serve.wait_share";
    "serve.update_share"; "serve.verify_share"; "serve.stats_share";
    "serve.slo_miss_frac"; "serve.gen_late_frac"; "maint.cascade_ops_per_update";
    "maint.replacement_frac"; "maint.repairs"; "maint.rebuilds"; "maint.degraded";
  ]

type op = {
  load : float;
  solve : float;
  verify : float;
  span : float; (* first to last timestamp of the operation *)
  cal : float; (* mean of the calibration readings around it *)
  words : float;
  minor_gc : float;
  major_gc : float;
  promoted : float;
  ledger : Rounds.t;
  counters : (string * float) list;
  weight : int;
  sol : Bitset.t;
}

let pipeline o = o.load +. o.solve +. o.verify
let calibrated o = pipeline o /. o.cal

let leaf path =
  match String.rindex_opt path '/' with
  | Some i -> String.sub path (i + 1) (String.length path - i - 1)
  | None -> path

let by_primitive kvs p =
  float_of_int
    (List.fold_left (fun acc (cat, v) -> if leaf cat = p then acc + v else acc) 0 kvs)

type instance = {
  path : string;
  lower_bound : int;
  file_mb : float;
  mutable reference : (Bitset.t * (int * int * int)) option;
  mutable ops : op list;
}

(* the operation of median calibrated duration (the lower one of an even
   count) *)
let median_op ops =
  let a = Array.of_list ops in
  Array.stable_sort (fun x y -> compare (calibrated x) (calibrated y)) a;
  a.((Array.length a - 1) / 2)

let run w ~smoke ~seed ~seconds ~trace ~dir =
  let n = if smoke then min w.n 64 else w.n in
  let count = if smoke then 2 else w.instances in
  let now = Probe.now in
  let paths =
    Array.init count (fun i ->
        Filename.concat dir
          (Printf.sprintf "%s-%d-%d-%d.bin" w.name seed (Unix.getpid ()) i))
  in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun p -> if Sys.file_exists p then Sys.remove p) paths)
  @@ fun () ->
  (* set-up: generate, encode and save every instance's fixture. It
     repeats between the operations below (see [Probe.setup_due]); each
     repetition rewrites the same files with the same bytes. *)
  let start = now () in
  let gens = ref [] and encs = ref [] and scaled = ref [] in
  let setup () =
    let rng = Rng.create ~seed in
    let parts =
      Array.map
        (fun path ->
          let t0 = now () in
          let g = w.gen (Rng.split rng) n in
          let t1 = now () in
          Io.save_binary path g;
          let t2 = now () in
          let id = Spans.fresh () in
          Spans.add ~parent:id "gen" t0 t1;
          Spans.add ~parent:id "encode" t1 t2;
          Spans.add ~id "setup" t0 t2;
          (t1 -. t0, t2 -. t1, g))
        paths
    in
    let gen = Array.fold_left (fun a (g, _, _) -> a +. g) 0.0 parts
    and enc = Array.fold_left (fun a (_, e, _) -> a +. e) 0.0 parts in
    gens := gen :: !gens;
    encs := enc :: !encs;
    scaled := Probe.at_reference_speed (gen +. enc) :: !scaled;
    Array.map (fun (_, _, g) -> g) parts
  in
  let setup_again () =
    if Probe.setup_due (List.map2 ( +. ) !gens !encs) ~elapsed:(now () -. start) then
      ignore (setup ())
  in
  let insts =
    Array.mapi
      (fun i g ->
        {
          path = paths.(i);
          lower_bound = Kecss_baselines.Lower_bound.best g ~k:w.k;
          file_mb = float_of_int (Unix.stat paths.(i)).Unix.st_size /. 1e6;
          reference = None;
          ops = [];
        })
      (setup ())
  in
  let solver_rng () = Rng.create ~seed:(seed + 7919) in
  let attempted = ref 0 and failed = ref 0 in
  (* an operation passes when it verifies and repeats its instance's first
     solution, rounds, messages and weight exactly *)
  let check inst sol (report : Verify.report) ledger =
    incr attempted;
    let key =
      (Rounds.total ledger, Rounds.total_messages ledger, report.Verify.weight)
    in
    let same =
      match inst.reference with
      | None ->
        inst.reference <- Some (sol, key);
        true
      | Some (s, k) -> Bitset.equal s sol && k = key
    in
    if not (report.Verify.ok && same) then incr failed
  in
  let readings = ref [] in
  let calibrate () =
    let c = Probe.calibrate () in
    readings := c :: !readings;
    c
  in
  let timed_op inst =
    let ledger = Rounds.create () in
    let before = calibrate () in
    let a0 = Probe.settled_words () in
    let s0 = Gc.quick_stat () in
    match
      let t0 = now () in
      let g = Io.load_binary inst.path in
      let t1 = now () in
      let sol, counters = w.solve ledger (solver_rng ()) g in
      let t2 = now () in
      let report = Verify.check_kecss ~cap:w.k g sol ~k:w.k in
      let t3 = now () in
      (sol, counters, report, t0, t1, t2, t3)
    with
    | exception e ->
      incr attempted;
      incr failed;
      Printf.eprintf "%s: %s\n%!" w.name (Printexc.to_string e);
      None
    | sol, counters, report, t0, t1, t2, t3 ->
      let s1 = Gc.quick_stat () in
      let words = Probe.settled_words () -. a0 in
      let cal = (before +. calibrate ()) /. 2.0 in
      check inst sol report ledger;
      let id = Spans.fresh () in
      Spans.add ~parent:id ~group:id "load" t0 t1;
      Spans.add ~parent:id ~group:id "solve" t1 t2;
      Spans.add ~parent:id ~group:id "verify" t2 t3;
      Spans.add ~id ~group:id "op" t0 t3;
      Some
        {
          load = t1 -. t0;
          solve = t2 -. t1;
          verify = t3 -. t2;
          span = t3 -. t0;
          cal;
          words;
          minor_gc = float_of_int (s1.Gc.minor_collections - s0.Gc.minor_collections);
          major_gc = float_of_int (s1.Gc.major_collections - s0.Gc.major_collections);
          promoted = s1.Gc.promoted_words -. s0.Gc.promoted_words;
          ledger;
          counters;
          weight = report.Verify.weight;
          sol;
        }
  in
  (* one warm-up operation pays the first-run allocations of the engine's
     persistent scratch; then rounds over every instance: at least two, so
     each instance's lower median discards a single disturbed operation,
     and a further round only while it can end within [seconds] *)
  ignore (timed_op insts.(0));
  let first = now () in
  let rec rounds k =
    let t0 = now () in
    Array.iter
      (fun inst ->
        Option.iter (fun o -> inst.ops <- o :: inst.ops) (timed_op inst);
        setup_again ())
      insts;
    let t1 = now () in
    if k < 2 || t1 -. first +. (t1 -. t0) <= seconds then rounds (k + 1)
  in
  rounds 1;
  while List.length !gens < Probe.min_setups do
    ignore (setup ())
  done;
  let insts = Array.to_list insts in
  if List.exists (fun i -> i.ops = []) insts then
    failwith (w.name ^ ": an instance had no successful operation");
  let mids = List.map (fun i -> (i, median_op i.ops)) insts in
  let per_instance f = Stats.mean (fun (i, o) -> f i o) mids in
  let pipes = List.concat_map (fun i -> List.map pipeline i.ops) insts in
  let end_to_end =
    [
      ("setup_s", Stats.median !scaled);
      ("op_cal", per_instance (fun _ o -> calibrated o));
      ("alloc_words_per_op", per_instance (fun _ o -> o.words));
      ( "weight_ratio",
        per_instance (fun i o -> float_of_int o.weight /. float_of_int i.lower_bound) );
      ("peak_heap_mb", Probe.peak_heap_mb ());
    ]
  in
  let count_by f p = per_instance (fun _ o -> by_primitive (f o.ledger) p) in
  let layers =
    [
      ("env.calib_ms", Stats.median !readings *. 1e3);
      ("gen.s", Stats.median !gens);
      ("io.encode_s", Stats.median !encs);
      ("io.decode_s", per_instance (fun _ o -> o.load));
      ( "io.decode_mb_per_s",
        per_instance (fun i _ -> i.file_mb) /. per_instance (fun _ o -> o.load) );
      ("solve.s", per_instance (fun _ o -> o.solve));
      ("verify.s", per_instance (fun _ o -> o.verify));
      ("op.p50_ms", per_instance (fun _ o -> pipeline o) *. 1e3);
      ("op.p90_ms", Stats.percentile pipes 0.90 *. 1e3);
      ("op.p99_ms", Stats.percentile pipes 0.99 *. 1e3);
      ("op.samples", float_of_int (List.length pipes));
      ("congest.rounds", per_instance (fun _ o -> float_of_int (Rounds.total o.ledger)));
      ( "congest.messages",
        per_instance (fun _ o -> float_of_int (Rounds.total_messages o.ledger)) );
      ("gc.minor_collections", per_instance (fun _ o -> o.minor_gc));
      ("gc.major_collections", per_instance (fun _ o -> o.major_gc));
      ("gc.promoted_words", per_instance (fun _ o -> o.promoted));
    ]
    @ List.concat_map
        (fun p ->
          [
            ("congest." ^ p ^ ".rounds", count_by Rounds.by_category p);
            ("congest." ^ p ^ ".messages", count_by Rounds.messages_by_category p);
          ])
        Spec.primitives
    @ List.map
        (fun (name, _) ->
          (name, per_instance (fun _ o -> List.assoc name o.counters)))
        (snd (List.hd mids)).counters
  in
  let traced =
    if not trace then []
    else begin
      (* on the first instance: allocation by stage (the pipeline once
         more, the heap settled between stages), then the solve under Prof
         and Metrics for phases and engine counters, then the probes *)
      let inst, mid = List.hd mids in
      let t0 = now () in
      let ledger = Rounds.create () in
      let a0 = Probe.settled_words () in
      let g = Io.load_binary inst.path in
      let a1 = Probe.settled_words () in
      let sol, _ = w.solve ledger (solver_rng ()) g in
      let a2 = Probe.settled_words () in
      let report = Verify.check_kecss ~cap:w.k g sol ~k:w.k in
      let a3 = Probe.settled_words () in
      check inst sol report ledger;
      Spans.add "attribution" t0 (now ());
      let prof = Prof.create () and metrics = Metrics.create () in
      let traced_ledger = Rounds.create ~prof ~metrics () in
      let g = Io.load_binary inst.path in
      let t0 = now () in
      let traced_sol, _ = w.solve traced_ledger (solver_rng ()) g in
      let t1 = now () in
      Spans.add "traced/solve" t0 t1;
      incr attempted;
      if not (Bitset.equal traced_sol sol) then incr failed;
      let traced_ns = (t1 -. t0) *. 1e9 in
      let total_where keep =
        List.fold_left
          (fun acc s -> if keep s.Prof.name then acc +. s.Prof.total_ns else acc)
          0.0 (Prof.stats prof)
      in
      let other =
        1.0 -. (total_where (fun name -> not (String.contains name '/')) /. traced_ns)
      in
      let identity_err =
        List.fold_left Float.max 0.0
          ([
             Float.max 0.0 (-.other);
             Float.abs (a3 -. a0 -. mid.words) /. mid.words;
           ]
          @ List.map (fun (_, o) -> Float.abs (pipeline o -. o.span) /. o.span) mids)
      in
      [
        ("io.decode_words", a1 -. a0);
        ("solve.words", a2 -. a1);
        ("verify.words", a3 -. a2);
        ( "congest.words_per_msg",
          Stats.ratio (a2 -. a1) (float_of_int (Rounds.total_messages ledger)) );
        ("solve.other_share", other);
        ("congest.runs", float_of_int (Metrics.runs metrics));
        ("congest.mean_active", (Metrics.summary metrics).Metrics.mean_active);
        ( "congest.analytic_rounds",
          float_of_int (Rounds.total traced_ledger - Metrics.rounds_observed metrics) );
        ("obs.trace_overhead_frac", ((t1 -. t0) /. mid.solve) -. 1.0);
        ("obs.identity_err", identity_err);
      ]
      @ List.map
          (fun p ->
            ("solve." ^ p ^ "_share", total_where (fun name -> leaf name = p) /. traced_ns))
          Spec.phases
      @ Probe.congest g
      @ Probe.mincut g mid.sol ~size:w.k
    end
  in
  let metrics = end_to_end @ layers @ traced in
  {
    Spec.workload = w.name;
    seed;
    trace;
    attempted = !attempted;
    failed = !failed;
    correct = !failed = 0;
    metrics =
      metrics
      @ List.filter_map
          (fun name -> if List.mem_assoc name metrics then None else Some (name, 0.0))
          not_measured;
  }
