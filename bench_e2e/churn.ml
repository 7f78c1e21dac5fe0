(* The serve workload: resident services under link flaps, driven through
   [Server.run_session] with in-memory read/write callbacks — no sockets,
   no threads. Each run serves several seeded graphs, one after another:
   first an open loop of seeded Poisson arrivals, timed from each
   request's due time, then a closed loop of back-to-back requests. The
   request counts are fixed by the run length, not by how fast the server
   answers, so two builds compared on one seed serve the same requests. *)

open Kecss_graph
module Server = Kecss_serve.Server
module Maint = Kecss_serve.Maint
module Json = Kecss_obs.Json
module Prof = Kecss_obs.Prof

let name = "serve-churn"
let k = 2
let n = 256
let servers = 8
let rate = 70.0 (* open-loop arrivals per second *)

(* requests per second of run length, over all graphs: a 20 s run sends
   1 200 open-loop requests (about 17 s at [rate]) and 600 closed-loop
   ones *)
let open_per_s = 60.0
let closed_per_s = 30.0
let max_down = 8
let slo = 0.050 (* seconds *)
let late = 0.001 (* generator overshoot counted as late *)

(* a 3-edge-connected graph served at k = 2, so single flaps rarely
   degrade the live graph *)
let gen rng n =
  Weights.uniform rng ~lo:1 ~hi:(n * n) (Gen.random_k_connected rng n 3 ~extra:(2 * n))

type kind = Update | Verify | Stats

(* the 8-request cycle: 6 updates, 1 verify, 1 stats *)
let kind_of i = match i mod 8 with 6 -> Verify | 7 -> Stats | _ -> Update

(* Updates are link flaps: delete a random live edge or revive the
   oldest down one, with at most [max_down] down at once. The stream
   depends only on the seed, so it is built before any timing starts. *)
let requests rng g count =
  let m = Graph.m g in
  let down = Queue.create () and is_down = Bitset.create m in
  Array.init count (fun i ->
      Json.Frame.encode_string
        (match kind_of i with
        | Verify -> {|{"req":"verify"}|}
        | Stats -> {|{"req":"stats"}|}
        | Update ->
          if
            Queue.length down >= max_down
            || ((not (Queue.is_empty down)) && Rng.bool rng)
          then begin
            let e = Queue.pop down in
            Bitset.remove is_down e;
            Printf.sprintf {|{"req":"update","op":"insert","edge":%d}|} e
          end
          else begin
            let rec pick () =
              let e = Rng.int rng m in
              if Bitset.mem is_down e then pick () else e
            in
            let e = pick () in
            Queue.push e down;
            Bitset.add is_down e;
            Printf.sprintf {|{"req":"update","op":"delete","edge":%d}|} e
          end))

(* timestamps and responses of every request, preallocated so that the
   loop itself allocates nothing the server does not *)
type log = {
  frames : string array;
  due : float array;
  start : float array;
  stop : float array;
  overshoot : float array;
  resp : string array;
  mutable sent : int;
  mutable answered : int;
}

let log_of frames =
  let c = Array.length frames in
  {
    frames;
    due = Array.make c 0.0;
    start = Array.make c 0.0;
    stop = Array.make c 0.0;
    overshoot = Array.make c 0.0;
    resp = Array.make c "";
    sent = 0;
    answered = 0;
  }

(* one session over requests [log.sent, last): an open loop hands each
   frame over only once it is due (sleeping until then), a closed loop at
   once *)
let session srv log ~last ~paced =
  let now = Probe.now in
  let read buf off len =
    let i = log.sent in
    if i >= last then 0
    else begin
      if paced then begin
        let t = now () in
        if log.due.(i) > t then begin
          Unix.sleepf (log.due.(i) -. t);
          log.overshoot.(i) <- now () -. log.due.(i)
        end
      end;
      let f = log.frames.(i) in
      let l = String.length f in
      if l > len then failwith "request frame larger than the read buffer";
      Bytes.blit_string f 0 buf off l;
      log.start.(i) <- now ();
      if not paced then log.due.(i) <- log.start.(i);
      log.sent <- i + 1;
      l
    end
  in
  let write s =
    let i = log.answered in
    log.stop.(i) <- now ();
    log.resp.(i) <- s;
    log.answered <- i + 1
  in
  Server.run_session srv ~read ~write

let payload frame =
  match String.index_opt frame '\n' with
  | Some j -> String.sub frame (j + 1) (String.length frame - j - 2)
  | None -> frame

(* A request fails when it is answered ok:false, or when it reports an
   unverified solution while the live graph is still k-connected (a
   degraded live graph caps the certificate at λ(live) — correct). *)
let failures log =
  let degraded = ref false in
  Array.init log.answered (fun i ->
      match Json.parse (payload log.resp.(i)) with
      | Error _ -> true
      | Ok j ->
        let flag key = match Json.member key j with Some (Json.Bool b) -> b | _ -> false in
        if kind_of i = Update then degraded := flag "degraded";
        (not (flag "ok"))
        || (kind_of i <> Stats && (not (flag "verified")) && not !degraded))

type served = {
  g : Graph.t;
  srv : Server.t;
  path : string;
  log : log;
  n_open : int;
  ratio : float; (* resident certificate weight / lower bound, at start *)
}

let run ~smoke ~seed ~seconds ~trace ~dir =
  let count = if smoke then 2 else servers in
  let n = if smoke then 64 else n in
  let now = Probe.now in
  let paths =
    Array.init count (fun j ->
        Filename.concat dir (Printf.sprintf "%s-%d-%d-%d.bin" name seed (Unix.getpid ()) j))
  in
  Fun.protect
    ~finally:(fun () -> Array.iter (fun p -> if Sys.file_exists p then Sys.remove p) paths)
  @@ fun () ->
  (* set-up as [kecss serve] does it: each graph file is loaded and its
     resident certificate built. It repeats between the sessions below
     (see [Probe.setup_due]); a repetition's servers are dropped. *)
  let start = now () in
  let totals = ref [] and scaled = ref [] and gens = ref [] and encs = ref []
  and loads = ref [] and creates = ref [] in
  let setup () =
    let rng = Rng.create ~seed in
    let parts =
      Array.map
        (fun path ->
          let t0 = now () in
          let g = gen (Rng.split rng) n in
          let t1 = now () in
          Io.save_binary path g;
          let t2 = now () in
          let g = Io.load_binary path in
          let t3 = now () in
          let srv = Server.create ~seed g ~k in
          let t4 = now () in
          let id = Spans.fresh () in
          List.iter
            (fun (s, a, b) -> Spans.add ~parent:id s a b)
            [ ("gen", t0, t1); ("encode", t1, t2); ("load", t2, t3); ("create", t3, t4) ];
          Spans.add ~id "setup" t0 t4;
          ((t1 -. t0, t2 -. t1, t3 -. t2, t4 -. t3), (g, srv)))
        paths
    in
    let sum f = Array.fold_left (fun a (t, _) -> a +. f t) 0.0 parts in
    gens := sum (fun (a, _, _, _) -> a) :: !gens;
    encs := sum (fun (_, b, _, _) -> b) :: !encs;
    loads := sum (fun (_, _, c, _) -> c) :: !loads;
    creates := sum (fun (_, _, _, d) -> d) :: !creates;
    let total = sum (fun (a, b, c, d) -> a +. b +. c +. d) in
    totals := total :: !totals;
    scaled := Probe.at_reference_speed total :: !scaled;
    Array.map snd parts
  in
  let setup_again () =
    if Probe.setup_due !totals ~elapsed:(now () -. start) then ignore (setup ())
  in
  let built = setup () in
  (* the requests are split evenly over the graphs; a smoke run sends
     12 open-loop and 13 closed-loop requests to each *)
  let per_graph rate = max 1 (int_of_float (Float.round (rate *. seconds)) / count) in
  let n_open = if smoke then 12 else per_graph open_per_s
  and n_closed = if smoke then 13 else per_graph closed_per_s in
  let streams = Rng.create ~seed:(seed + 15_485_863) in
  let arrivals = Rng.create ~seed:(seed + 104_729) in
  let served =
    Array.mapi
      (fun j (g, srv) ->
        let log = log_of (requests (Rng.split streams) g (n_open + n_closed)) in
        (* seeded Poisson arrivals: exponential gaps at [rate] *)
        let t = ref 0.0 in
        for i = 0 to n_open - 1 do
          t := !t -. (Float.log (1.0 -. Rng.float arrivals 1.0) /. rate);
          log.due.(i) <- !t
        done;
        {
          g;
          srv;
          path = paths.(j);
          log;
          n_open;
          ratio =
            float_of_int (Graph.mask_weight g (Maint.solution (Server.maint srv)))
            /. float_of_int (Kecss_baselines.Lower_bound.best g ~k);
        })
      built
  in
  (* calibration readings around every session, outside the allocation
     brackets *)
  let readings = ref [] in
  let calibrate () =
    let c = Probe.calibrate () in
    readings := c :: !readings;
    c
  in
  Array.iter
    (fun s ->
      ignore (calibrate ());
      Gc.full_major ();
      let t = now () +. 0.005 in
      for i = 0 to s.n_open - 1 do
        s.log.due.(i) <- t +. s.log.due.(i)
      done;
      session s.srv s.log ~last:s.n_open ~paced:true;
      setup_again ())
    served;
  (* closed loop, in chunks of [chunk] requests with a calibration reading
     between chunks: each request's time is in units of the mean reading
     around its chunk, so a slow spell of the host a few tenths of a
     second long is cancelled where it happens. Allocation is counted over
     each chunk, the heap settled at both ends. *)
  let chunk = 25 in
  let words = ref 0.0 and minor = ref 0 and major = ref 0 and promoted = ref 0.0 in
  let calibrated = ref [] and closed_wall = ref 0.0 in
  Array.iter
    (fun s ->
      let last = Array.length s.log.frames in
      let before = ref (calibrate ()) in
      while s.log.sent < last do
        let first = s.log.sent in
        let a0 = Probe.settled_words () in
        let s0 = Gc.quick_stat () in
        session s.srv s.log ~last:(min last (first + chunk)) ~paced:false;
        let s1 = Gc.quick_stat () in
        words := !words +. (Probe.settled_words () -. a0);
        minor := !minor + s1.Gc.minor_collections - s0.Gc.minor_collections;
        major := !major + s1.Gc.major_collections - s0.Gc.major_collections;
        promoted := !promoted +. s1.Gc.promoted_words -. s0.Gc.promoted_words;
        closed_wall := !closed_wall +. s.log.stop.(s.log.answered - 1) -. s.log.start.(first);
        let after = calibrate () in
        let cal = (!before +. after) /. 2.0 in
        for i = first to s.log.answered - 1 do
          calibrated := ((s.log.stop.(i) -. s.log.start.(i)) /. cal) :: !calibrated
        done;
        before := after
      done;
      setup_again ())
    served;
  while List.length !totals < Probe.min_setups do
    ignore (setup ())
  done;
  let served = Array.to_list served in
  let over f = List.concat_map f served in
  let opened f = over (fun s -> List.init s.n_open (fun i -> f s.log i)) in
  let n_open = List.fold_left (fun a s -> a + s.n_open) 0 served in
  let n_closed = List.length !calibrated in
  let latency = opened (fun l i -> l.stop.(i) -. l.due.(i)) in
  let wait = opened (fun l i -> l.start.(i) -. l.due.(i)) in
  let per_closed x = x /. float_of_int (max 1 n_closed) in
  (* every request's spans: request → wait, service *)
  List.iter
    (fun s ->
      for i = 0 to s.log.answered - 1 do
        let id = Spans.fresh () in
        Spans.add ~parent:id ~group:id "wait" s.log.due.(i) s.log.start.(i);
        Spans.add ~parent:id ~group:id "service" s.log.start.(i) s.log.stop.(i);
        Spans.add ~id ~group:id "request" s.log.due.(i) s.log.stop.(i)
      done)
    served;
  let kind_totals =
    List.fold_left
      (fun acc s ->
        List.map
          (fun (kind, h) ->
            (kind, Prof.Hist.total_ns h +. Option.value ~default:0.0 (List.assoc_opt kind acc)))
          (Server.latencies s.srv))
      [] served
  in
  let service_total = Stats.sum (List.map snd kind_totals) in
  let stats = List.map (fun s -> Maint.stats (Server.maint s.srv)) served in
  let stat f = float_of_int (List.fold_left (fun a st -> a + f st) 0 stats) in
  let updates = stat (fun st -> st.Maint.deletes + st.Maint.inserts) in
  let first = List.hd served in
  let traced =
    if not trace then []
    else begin
      (* on the first graph: allocation by stage of the set-up, the
         verification gate alone on the resident state, then the probes *)
      let a0 = Probe.settled_words () in
      let g' = Io.load_binary first.path in
      let a1 = Probe.settled_words () in
      let srv' = Server.create ~seed g' ~k in
      let a2 = Probe.settled_words () in
      ignore (Maint.verify (Server.maint srv'));
      let a3 = Probe.settled_words () in
      let gate =
        List.init 5 (fun _ ->
            let t0 = now () in
            ignore (Maint.verify (Server.maint first.srv));
            let t1 = now () in
            Spans.add "probe/verify" t0 t1;
            t1 -. t0)
      in
      [
        ("io.decode_words", a1 -. a0);
        ("solve.words", a2 -. a1);
        ("verify.words", a3 -. a2);
        ("verify.s", Stats.median gate);
      ]
      @ Probe.congest first.g
      @ Probe.mincut first.g (Maint.solution (Server.maint first.srv)) ~size:k
    end
  in
  (* each resident solution must equal a from-scratch certificate of its
     final live edge set *)
  let canonical =
    List.for_all
      (fun s ->
        let m = Server.maint s.srv in
        Bitset.equal (Maint.solution m)
          (Maint.solution (Maint.create ~live:(Maint.live m) (Maint.graph m) ~k)))
      served
  in
  let failed = List.map (fun s -> failures s.log) served in
  let n_failed =
    List.fold_left (Array.fold_left (fun a f -> if f then a + 1 else a)) 0 failed
  in
  let open_missed =
    List.fold_left2
      (fun acc s f ->
        acc
        + List.length
            (List.filter
               (fun i -> f.(i) || s.log.stop.(i) -. s.log.due.(i) > slo)
               (List.init s.n_open Fun.id)))
      0 served failed
  in
  let harness_ns =
    1e9
    *. Stats.sum
         (over (fun s -> List.init s.log.answered (fun i -> s.log.stop.(i) -. s.log.start.(i))))
  in
  let share kind = Stats.ratio (List.assoc kind kind_totals) service_total in
  let metrics =
    [
      ("setup_s", Stats.median !scaled);
      ("op_cal", Stats.median !calibrated);
      ("alloc_words_per_op", per_closed !words);
      ("weight_ratio", Stats.mean (fun s -> s.ratio) served);
      ("env.calib_ms", Stats.median !readings *. 1e3);
      ("peak_heap_mb", Probe.peak_heap_mb ());
      ("gen.s", Stats.median !gens);
      ("io.encode_s", Stats.median !encs);
      ("io.decode_s", Stats.median !loads);
      ( "io.decode_mb_per_s",
        Stats.sum (List.map (fun s -> float_of_int (Unix.stat s.path).Unix.st_size /. 1e6) served)
        /. Stats.median !loads );
      ("solve.s", Stats.median !creates);
      ("op.p50_ms", Stats.median latency *. 1e3);
      ("op.p90_ms", Stats.percentile latency 0.90 *. 1e3);
      ("op.p99_ms", Stats.percentile latency 0.99 *. 1e3);
      ("op.samples", float_of_int n_open);
      ("serve.requests", float_of_int (n_open + n_closed));
      ("serve.req_per_s", float_of_int n_closed /. !closed_wall);
      ("serve.wait_share", Stats.ratio (Stats.sum wait) (Stats.sum latency));
      ("serve.update_share", share "update");
      ("serve.verify_share", share "verify");
      ("serve.stats_share", share "stats");
      ("serve.slo_miss_frac", float_of_int open_missed /. float_of_int (max 1 n_open));
      ( "serve.gen_late_frac",
        float_of_int
          (List.length (List.filter (fun x -> x > late) (opened (fun l i -> l.overshoot.(i)))))
        /. float_of_int (max 1 n_open) );
      ( "maint.cascade_ops_per_update",
        Stats.ratio (stat (fun st -> st.Maint.cascade_ops)) updates );
      ( "maint.replacement_frac",
        Stats.ratio (stat (fun st -> st.Maint.replacements)) (stat (fun st -> st.Maint.deletes)) );
      ("maint.repairs", stat (fun st -> st.Maint.repairs));
      ("maint.rebuilds", stat (fun st -> st.Maint.rebuilds));
      ("maint.degraded", stat (fun st -> st.Maint.degraded));
      ("gc.minor_collections", per_closed (float_of_int !minor));
      ("gc.major_collections", per_closed (float_of_int !major));
      ("gc.promoted_words", per_closed !promoted);
      (* serve has no opt-in tracing: its layer numbers come from counters
         the server always keeps, so traced and untraced runs are one *)
      ("obs.trace_overhead_frac", 0.0);
      (* the server's own per-kind timing sits inside the harness's
         service spans *)
      ("obs.identity_err", Float.max 0.0 ((service_total -. harness_ns) /. harness_ns));
      ("solve.other_share", 1.0);
    ]
    @ traced
  in
  let engine =
    [
      "congest.rounds"; "congest.messages"; "congest.runs"; "congest.analytic_rounds";
      "congest.mean_active"; "congest.words_per_msg"; "tap.iterations";
      "tap.candidates_per_added"; "augk.iterations"; "ecss3.iterations"; "ecss3.repaired";
    ]
    @ List.map (fun p -> "solve." ^ p ^ "_share") Spec.phases
    @ List.concat_map
        (fun p -> [ "congest." ^ p ^ ".rounds"; "congest." ^ p ^ ".messages" ])
        Spec.primitives
  in
  {
    Spec.workload = name;
    seed;
    trace;
    attempted = n_open + n_closed;
    failed = (n_failed + if canonical then 0 else 1);
    correct = n_failed = 0 && canonical;
    metrics = metrics @ List.map (fun z -> (z, 0.0)) engine;
  }
