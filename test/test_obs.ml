(* The observability layer: traces, metrics, exporters — and the contract
   that instrumentation never changes algorithm results. *)

open Common
open Kecss_graph
open Kecss_congest
open Kecss_core
open Kecss_obs

(* ------------------------------------------------------------------ *)
(* Trace                                                               *)
(* ------------------------------------------------------------------ *)

let test_span_nesting () =
  let tr = Trace.create () in
  Trace.span tr "outer" (fun () ->
      Trace.advance tr 3.0;
      Trace.span tr "inner" (fun () -> Trace.advance tr 2.0);
      check_int "depth inside outer" 1 (Trace.depth tr));
  check_int "depth after" 0 (Trace.depth tr);
  let names =
    List.map
      (fun e ->
        match e.Trace.kind with
        | Trace.Span_begin -> "B:" ^ e.Trace.name
        | Trace.Span_end -> "E:" ^ e.Trace.name
        | Trace.Instant -> "i:" ^ e.Trace.name
        | Trace.Counter -> "C:" ^ e.Trace.name)
      (Trace.events tr)
  in
  Alcotest.(check (list string))
    "event order"
    [ "B:outer"; "B:inner"; "E:inner"; "E:outer" ]
    names;
  (* span durations come from the logical clock *)
  (match Trace.events tr with
  | [ b_outer; b_inner; e_inner; e_outer ] ->
    check_is "outer opens at 0" (b_outer.Trace.ts = 0.0);
    check_is "inner opens at 3" (b_inner.Trace.ts = 3.0);
    check_is "inner closes at 5" (e_inner.Trace.ts = 5.0);
    check_is "outer closes at 5" (e_outer.Trace.ts = 5.0)
  | _ -> Alcotest.fail "expected 4 events");
  (* exception safety *)
  (try Trace.span tr "boom" (fun () -> failwith "x") with Failure _ -> ());
  check_int "depth after exception" 0 (Trace.depth tr)

let test_counters () =
  let tr = Trace.create () in
  Trace.count tr "msgs" 3;
  Trace.advance tr 1.0;
  Trace.count tr "msgs" 4;
  Trace.count tr "other" 1;
  check_int "cumulative" 7 (Trace.counter_total tr "msgs");
  check_int "independent" 1 (Trace.counter_total tr "other");
  check_int "unknown" 0 (Trace.counter_total tr "nope");
  let totals =
    List.filter_map
      (fun e ->
        match (e.Trace.kind, e.Trace.name) with
        | Trace.Counter, "msgs" -> List.assoc_opt "msgs" e.Trace.args
        | _ -> None)
      (Trace.events tr)
  in
  check_is "counter events carry cumulative values"
    (totals = [ Trace.Int 3; Trace.Int 7 ])

(* a subscriber that emits back into the trace it observes would corrupt
   the stream mid-dispatch: the guard must refuse loudly *)
let test_subscribe_reentrancy () =
  let tr = Trace.create () in
  let failures = ref 0 in
  Trace.subscribe tr (fun _ ->
      match Trace.instant tr "echo" with
      | () -> ()
      | exception Invalid_argument _ -> incr failures);
  Trace.instant tr "ping";
  check_int "re-entrant emit rejected" 1 !failures;
  (* the guard resets: later first-level emissions still work *)
  Trace.instant tr "pong";
  check_int "trace still live" 2 !failures;
  check_int "only first-level events recorded" 2 (Trace.event_count tr)

(* ------------------------------------------------------------------ *)
(* Fork and join                                                       *)
(* ------------------------------------------------------------------ *)

(* the per-cell workload the fork/join tests replay: spans, clock
   advances, counters and instants, all index-dependent *)
let fork_cell tr i =
  Trace.span tr (Printf.sprintf "cell%d" i) (fun () ->
      Trace.advance tr (float_of_int (i + 1));
      Trace.count tr "msgs" (i + 2);
      Trace.instant tr ~args:[ ("i", Trace.Int i) ] "tick";
      Trace.span tr "inner" (fun () ->
          Trace.advance tr 0.5;
          Trace.count tr "msgs" 1))

let test_trace_fork_join () =
  (* reference: the same cells run inline, in index order *)
  let seq = Trace.create () in
  Trace.instant seq "prologue";
  Trace.advance seq 2.0;
  Trace.count seq "msgs" 10;
  for i = 0 to 2 do
    fork_cell seq i
  done;
  Trace.instant seq "epilogue";
  (* forked: cells recorded into children out of order, joined in index
     order; the parent's subscriber sees every joined event *)
  let sh = Trace.create () in
  let seen = ref 0 in
  Trace.subscribe sh (fun _ -> incr seen);
  let parent = Probe.create ~trace:sh () in
  Trace.instant sh "prologue";
  Trace.advance sh 2.0;
  Trace.count sh "msgs" 10;
  let kids = Array.init 3 (fun _ -> Probe.fork parent) in
  List.iter (fun i -> fork_cell (Probe.trace kids.(i)) i) [ 2; 0; 1 ];
  check_int "nothing reaches the parent before the join" 2
    (Trace.event_count sh);
  Array.iter (Probe.join parent) kids;
  Trace.instant sh "epilogue";
  Alcotest.(check string)
    "joined stream byte-identical to sequential" (Export.jsonl seq)
    (Export.jsonl sh);
  check_int "counters fold cumulatively" (Trace.counter_total seq "msgs")
    (Trace.counter_total sh "msgs");
  check_is "clock advanced by the children's sum" (Trace.now sh = Trace.now seq);
  check_int "subscriber fired for every event" (Trace.event_count sh) !seen

let test_metrics_fork_join () =
  let record m i =
    Metrics.run_begin m;
    for r = 0 to i do
      Metrics.on_send m ~edge:i;
      Metrics.on_round m ~messages:1 ~active:(i + 1 - r)
    done;
    Metrics.run_end m ~quiesced:true ~rounds:(i + 1)
  in
  let seq = Metrics.create () in
  for i = 0 to 3 do
    record seq i
  done;
  let sh = Metrics.create () in
  let kids = Array.init 4 (fun _ -> Metrics.fork sh ~trace:Trace.noop) in
  List.iter (fun i -> record kids.(i) i) [ 3; 1; 0; 2 ];
  Array.iter (Metrics.join sh) kids;
  check_is "summary identical" (Metrics.summary seq = Metrics.summary sh);
  check_is "messages series identical"
    (Metrics.messages_series seq = Metrics.messages_series sh);
  check_is "active series identical"
    (Metrics.active_series seq = Metrics.active_series sh);
  check_is "quiescence rounds identical"
    (Metrics.quiescence_rounds seq = Metrics.quiescence_rounds sh);
  check_is "hottest edge identical"
    (Metrics.hottest_edge seq = Metrics.hottest_edge sh)

let test_noop_trace_records_nothing () =
  let tr = Trace.noop in
  Trace.span tr "a" (fun () -> Trace.count tr "c" 5);
  Trace.instant tr "i";
  check_is "disabled" (not (Trace.enabled tr));
  check_int "no events" 0 (Trace.event_count tr);
  check_int "no counters" 0 (Trace.counter_total tr "c")

(* ------------------------------------------------------------------ *)
(* Rounds <-> trace integration                                        *)
(* ------------------------------------------------------------------ *)

let test_rounds_drive_clock () =
  let tr = Trace.create () in
  let ledger = Rounds.create ~trace:tr () in
  Rounds.scoped ledger "phase" (fun () ->
      Rounds.charge ledger ~category:"work" 7;
      Rounds.charge_messages ledger ~category:"work" 12);
  check_is "clock = charged rounds" (Trace.now tr = 7.0);
  check_int "rounds counter" 7 (Trace.counter_total tr "rounds");
  check_int "messages counter" 12 (Trace.counter_total tr "messages");
  (* the span name is the category prefix: one naming scheme *)
  (match Trace.events tr with
  | e :: _ ->
    check_is "span kind" (e.Trace.kind = Trace.Span_begin);
    Alcotest.(check string) "span name" "phase" e.Trace.name
  | [] -> Alcotest.fail "no events");
  check_is "ledger categories use the same prefix"
    (List.mem_assoc "phase/work" (Rounds.by_category ledger))

let test_rounds_to_json () =
  let ledger = Rounds.create () in
  Rounds.scoped ledger "outer" (fun () ->
      Rounds.charge ledger ~category:"x" 3;
      Rounds.charge_messages ledger ~category:"x" 9);
  let s = Rounds.to_json ledger in
  (match Json.check s with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("Rounds.to_json invalid: " ^ e));
  check_is "mentions category" (String.length s > 0)

(* ------------------------------------------------------------------ *)
(* Exporters                                                           *)
(* ------------------------------------------------------------------ *)

let traced_solve () =
  let rng = Rng.create ~seed:99 in
  let g =
    Weights.uniform rng ~lo:1 ~hi:20 (Gen.circulant 16 [ 1; 2 ])
  in
  let tr = Trace.create () in
  let metrics = Metrics.create ~trace:tr () in
  let ledger = Rounds.create ~trace:tr ~metrics () in
  ignore (Ecss2.solve_with ledger (Rng.create ~seed:5) g);
  (tr, metrics, ledger)

let test_jsonl_wellformed () =
  let tr, _, _ = traced_solve () in
  let lines =
    String.split_on_char '\n' (Export.jsonl tr)
    |> List.filter (fun l -> String.length l > 0)
  in
  check_int "one line per event" (Trace.event_count tr) (List.length lines);
  List.iter
    (fun l ->
      match Json.check l with
      | Ok () -> ()
      | Error e -> Alcotest.fail (Printf.sprintf "bad JSONL line %S: %s" l e))
    lines

let test_chrome_wellformed () =
  let tr, _, _ = traced_solve () in
  let s = Export.chrome tr in
  (match Json.check s with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("chrome trace invalid: " ^ e));
  (* the documented phase markers all appear *)
  let contains sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  List.iter
    (fun frag -> check_is ("contains " ^ frag) (contains frag))
    [
      "\"traceEvents\""; "\"ph\":\"B\""; "\"ph\":\"E\""; "\"ph\":\"C\"";
      "\"ecss2\""; "\"mst\""; "\"segments\""; "\"tap/iteration\"";
      "messages/round";
    ]

(* round-trip the Chrome export through our own parser: every duration
   event must pair B/E like a well-formed stack and timestamps must never
   go backwards *)
let test_chrome_roundtrip () =
  let tr, _, _ = traced_solve () in
  let doc =
    match Json.parse (Export.chrome tr) with
    | Ok v -> v
    | Error e -> Alcotest.fail ("chrome trace does not reparse: " ^ e)
  in
  let events =
    match Json.member "traceEvents" doc with
    | Some (Json.List evs) -> evs
    | _ -> Alcotest.fail "no traceEvents list"
  in
  check_is "at least as many json events as trace events"
    (List.length events >= Trace.event_count tr);
  let field name j =
    match Json.member name j with
    | Some v -> v
    | None -> Alcotest.fail ("event missing field " ^ name)
  in
  let str j = Option.get (Json.to_string_opt j) in
  let last_ts = ref neg_infinity in
  let stack = ref [] in
  List.iter
    (fun ev ->
      let ph = str (field "ph" ev) in
      let name = str (field "name" ev) in
      let ts =
        match Json.to_float_opt (field "ts" ev) with
        | Some f -> f
        | None -> Alcotest.fail "ts is not a number"
      in
      check_is "ts monotonically nondecreasing" (ts >= !last_ts);
      last_ts := ts;
      check_int "single thread" 1
        (Option.get (Json.to_int_opt (field "tid" ev)));
      match ph with
      | "B" -> stack := name :: !stack
      | "E" -> (
        match !stack with
        | top :: rest ->
          Alcotest.(check string) "E closes the innermost open B" top name;
          stack := rest
        | [] -> Alcotest.fail ("E without open B: " ^ name))
      | "i" | "C" -> ()
      | ph -> Alcotest.fail ("unexpected phase " ^ ph))
    events;
  check_is "every B closed" (!stack = [])

(* ------------------------------------------------------------------ *)
(* Prof: wall-clock spans, GC deltas, histograms                       *)
(* ------------------------------------------------------------------ *)

let test_hist_percentiles () =
  let h = Prof.Hist.create () in
  check_is "empty percentile" (Prof.Hist.percentile h 0.5 = 0.0);
  (* 1..100 ms: percentiles must be bucket-approximate but ordered and
     clamped to the observed range *)
  for i = 1 to 100 do
    Prof.Hist.add h (float_of_int i *. 1e6)
  done;
  check_int "count" 100 (Prof.Hist.count h);
  check_is "min" (Prof.Hist.min_ns h = 1e6);
  check_is "max" (Prof.Hist.max_ns h = 1e8);
  let p50 = Prof.Hist.p50 h
  and p90 = Prof.Hist.p90 h
  and p99 = Prof.Hist.p99 h in
  check_is "ordered" (p50 <= p90 && p90 <= p99);
  check_is "p50 in range" (p50 >= 1e6 && p50 <= 1e8);
  (* geometric buckets are ~19% wide: allow one bucket of slack *)
  check_is "p50 near the median" (p50 >= 35e6 && p50 <= 70e6);
  check_is "p99 near the tail" (p99 >= 70e6 && p99 <= 1e8);
  (* extremes clamp instead of reporting bucket edges *)
  check_is "q=0 clamps to min" (Prof.Hist.percentile h 0.0 >= 1e6);
  check_is "q=1 clamps to max" (Prof.Hist.percentile h 1.0 <= 1e8);
  (* out-of-range observations land in the overflow buckets but keep
     exact min/max *)
  let o = Prof.Hist.create () in
  Prof.Hist.add o 1.0;
  Prof.Hist.add o 1e12;
  check_is "underflow keeps min" (Prof.Hist.min_ns o = 1.0);
  check_is "overflow keeps max" (Prof.Hist.max_ns o = 1e12);
  check_is "underflow percentile = min" (Prof.Hist.percentile o 0.4 = 1.0);
  check_is "overflow percentile = max" (Prof.Hist.percentile o 1.0 = 1e12)

let test_prof_span () =
  let p = Prof.create () in
  check_is "enabled" (Prof.enabled p);
  let r = Prof.span p "work" (fun () -> Sys.opaque_identity (List.init 1000 Fun.id)) in
  check_int "span returns the result" 1000 (List.length r);
  ignore (Prof.span p "work" (fun () -> ()));
  (try Prof.span p "boom" (fun () -> failwith "x") with Failure _ -> ());
  match Prof.stats p with
  | [ boom; work ] ->
    Alcotest.(check string) "sorted by name" "boom" boom.Prof.name;
    Alcotest.(check string) "second" "work" work.Prof.name;
    check_int "calls aggregated" 2 work.Prof.calls;
    check_int "exception-safe recording" 1 boom.Prof.calls;
    check_is "wall time measured" (work.Prof.total_ns >= 0.0);
    check_is "max <= total" (work.Prof.max_ns <= work.Prof.total_ns);
    check_int "histogram count = calls" 2 (Prof.Hist.count work.Prof.hist);
    check_is "allocations observed" (work.Prof.gc.Prof.minor_words > 0.0);
    (match Json.check (Json.to_string (Prof.to_json p)) with
    | Ok () -> ()
    | Error e -> Alcotest.fail ("prof json invalid: " ^ e))
  | l -> Alcotest.fail (Printf.sprintf "expected 2 stats, got %d" (List.length l))

let test_prof_noop () =
  let p = Prof.noop in
  check_is "disabled" (not (Prof.enabled p));
  check_int "span still runs" 7 (Prof.span p "x" (fun () -> 7));
  check_is "no stats" (Prof.stats p = []);
  check_is "allocated_words grows" (Prof.allocated_words () > 0.0)

(* ------------------------------------------------------------------ *)
(* Engine metrics                                                      *)
(* ------------------------------------------------------------------ *)

let test_series_sums_to_messages () =
  let _, metrics, ledger = traced_solve () in
  let series = Metrics.messages_series metrics in
  let sum = Array.fold_left ( + ) 0 series in
  check_int "series sums to collector total" (Metrics.total_messages metrics) sum;
  check_int "collector total = ledger total" (Rounds.total_messages ledger)
    (Metrics.total_messages metrics);
  check_int "series length = rounds observed"
    (Metrics.rounds_observed metrics)
    (Array.length series);
  check_int "active series same length"
    (Array.length (Metrics.active_series metrics))
    (Array.length series);
  check_is "peak is the series max"
    (Metrics.peak_round_messages metrics
    = Array.fold_left max 0 series);
  check_is "some engine runs recorded" (Metrics.runs metrics > 0);
  (match Metrics.hottest_edge metrics with
  | Some (_, m) -> check_is "hottest edge carries messages" (m > 0)
  | None -> Alcotest.fail "expected a hottest edge");
  let s = Metrics.summary metrics in
  check_int "summary rounds" (Metrics.rounds_observed metrics) s.Metrics.rounds;
  match Json.check (Json.to_string (Metrics.to_json metrics)) with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("metrics json invalid: " ^ e)

(* counted rounds observed by the collector match the ledger's counted
   engine categories: uncounted tail passes deliver nothing *)
let test_metrics_vs_engine () =
  let g = Gen.torus 4 4 in
  let metrics = Metrics.create () in
  let ledger = Rounds.create ~metrics () in
  ignore (Prim.bfs_tree ledger g ~root:0);
  let series = Metrics.messages_series metrics in
  check_int "bfs series sums to all messages" (Rounds.total_messages ledger)
    (Array.fold_left ( + ) 0 series);
  check_is "every counted round is recorded"
    (Metrics.rounds_observed metrics > 0)

(* ------------------------------------------------------------------ *)
(* Instrumentation is inert: identical results with sinks on and off    *)
(* ------------------------------------------------------------------ *)

let instrumented () =
  let tr = Trace.create () in
  Rounds.create ~trace:tr ~metrics:(Metrics.create ~trace:tr ()) ()

let test_ecss2_unchanged () =
  List.iter
    (fun (name, g) ->
      let plain = Ecss2.solve_with (Rounds.create ()) (Rng.create ~seed:11) g in
      let traced = Ecss2.solve_with (instrumented ()) (Rng.create ~seed:11) g in
      check_is (name ^ ": same solution")
        (Bitset.equal plain.Ecss2.solution traced.Ecss2.solution);
      check_int (name ^ ": same rounds") plain.Ecss2.rounds traced.Ecss2.rounds)
    (two_ec_pool ())

let test_kecss_unchanged () =
  List.iter
    (fun (name, g) ->
      let plain =
        Kecss.solve_with (Rounds.create ()) (Rng.create ~seed:11) g ~k:3
      in
      let traced =
        Kecss.solve_with (instrumented ()) (Rng.create ~seed:11) g ~k:3
      in
      check_is (name ^ ": same solution")
        (Bitset.equal plain.Kecss.solution traced.Kecss.solution);
      check_int (name ^ ": same rounds") plain.Kecss.rounds traced.Kecss.rounds)
    (three_ec_pool ())

let test_ecss3_unchanged () =
  List.iter
    (fun (name, g) ->
      let plain =
        Ecss3.solve_with (Rounds.create ()) (Rng.create ~seed:11) g
      in
      let traced = Ecss3.solve_with (instrumented ()) (Rng.create ~seed:11) g in
      check_is (name ^ ": same solution")
        (Bitset.equal plain.Ecss3.solution traced.Ecss3.solution);
      check_int (name ^ ": same iterations") plain.Ecss3.iterations
        traced.Ecss3.iterations)
    (three_ec_pool ())

(* ------------------------------------------------------------------ *)
(* Json validator sanity                                               *)
(* ------------------------------------------------------------------ *)

let test_json_check () =
  let ok s = check_is ("valid: " ^ s) (Json.check s = Ok ()) in
  let bad s = check_is ("invalid: " ^ s) (Json.check s <> Ok ()) in
  ok "{}";
  ok "[1, 2.5, -3e2, \"a\\nb\", true, null]";
  ok "{\"a\": {\"b\": []}}";
  bad "{";
  bad "[1,]";
  bad "{\"a\": 1} trailing";
  bad "\"unterminated";
  ok (Json.to_string
        (Json.Obj
           [ ("x", Json.Float nan); ("y", Json.List [ Json.Int 1 ]) ]))

(* ------------------------------------------------------------------ *)
(* Json parser                                                         *)
(* ------------------------------------------------------------------ *)

let test_json_parse_units () =
  let p = Json.parse in
  check_is "int" (p "42" = Ok (Json.Int 42));
  check_is "negative int" (p " -7 " = Ok (Json.Int (-7)));
  check_is "dot makes a float" (p "2.0" = Ok (Json.Float 2.0));
  check_is "exponent makes a float" (p "1e3" = Ok (Json.Float 1000.0));
  (match p "99999999999999999999999" with
  | Ok (Json.Float _) -> ()
  | _ -> Alcotest.fail "out-of-range integer should widen to Float");
  check_is "escapes" (p "\"a\\n\\t\\\\\\\"b\"" = Ok (Json.Str "a\n\t\\\"b"));
  check_is "\\u ascii" (p "\"\\u0041\"" = Ok (Json.Str "A"));
  check_is "\\u control" (p "\"\\u0001\"" = Ok (Json.Str "\x01"));
  check_is "\\u two-byte" (p "\"\\u00e9\"" = Ok (Json.Str "\xc3\xa9"));
  check_is "\\u three-byte" (p "\"\\u20ac\"" = Ok (Json.Str "\xe2\x82\xac"));
  check_is "surrogate pair"
    (p "\"\\ud83d\\ude00\"" = Ok (Json.Str "\xf0\x9f\x98\x80"));
  check_is "lone high surrogate -> U+FFFD"
    (p "\"\\ud800\"" = Ok (Json.Str "\xef\xbf\xbd"));
  check_is "lone low surrogate -> U+FFFD"
    (p "\"\\udc00x\"" = Ok (Json.Str "\xef\xbf\xbdx"));
  check_is "raw control char rejected" (Result.is_error (p "\"\x01\""));
  check_is "field order and duplicates preserved"
    (p "{\"a\":1,\"b\":2,\"a\":3}"
    = Ok (Json.Obj [ ("a", Json.Int 1); ("b", Json.Int 2); ("a", Json.Int 3) ]));
  (* accessors *)
  (match p "{\"a\":1,\"b\":2.5,\"c\":\"x\",\"a\":9}" with
  | Ok v ->
    check_is "member first occurrence"
      (Option.bind (Json.member "a" v) Json.to_int_opt = Some 1);
    check_is "int widens to float"
      (Option.bind (Json.member "a" v) Json.to_float_opt = Some 1.0);
    check_is "float accessor"
      (Option.bind (Json.member "b" v) Json.to_float_opt = Some 2.5);
    check_is "string accessor"
      (Option.bind (Json.member "c" v) Json.to_string_opt = Some "x");
    check_is "missing member" (Json.member "z" v = None)
  | Error e -> Alcotest.fail e);
  (* deep nesting *)
  let depth = 500 in
  let deep =
    String.concat "" (List.init depth (fun _ -> "["))
    ^ "0"
    ^ String.concat "" (List.init depth (fun _ -> "]"))
  in
  let rec unwrap d v =
    match v with
    | Json.List [ inner ] -> unwrap (d + 1) inner
    | Json.Int 0 -> check_int "nesting depth survives" depth d
    | _ -> Alcotest.fail "unexpected shape in deep array"
  in
  (match p deep with
  | Ok v -> unwrap 0 v
  | Error e -> Alcotest.fail ("deep nesting: " ^ e))

(* seeded random value trees; floats restricted to non-integer dyadic
   rationals (2k+1)/16 so the "%.12g" rendering reparses exactly and the
   Int/Float distinction is preserved *)
let rec gen_value st depth =
  match Random.State.int st (if depth = 0 then 5 else 7) with
  | 0 -> Json.Null
  | 1 -> Json.Bool (Random.State.bool st)
  | 2 -> Json.Int (Random.State.int st 2_000_001 - 1_000_000)
  | 3 ->
    let k = Random.State.int st 2001 - 1000 in
    Json.Float (float_of_int ((2 * k) + 1) /. 16.0)
  | 4 ->
    Json.Str
      (String.init (Random.State.int st 12) (fun _ ->
           Char.chr (Random.State.int st 256)))
  | 5 ->
    Json.List
      (List.init (Random.State.int st 4) (fun _ -> gen_value st (depth - 1)))
  | _ ->
    Json.Obj
      (List.init (Random.State.int st 4) (fun i ->
           ( Printf.sprintf "k%d_%d" i (Random.State.int st 100),
             gen_value st (depth - 1) )))

let test_json_roundtrip_property () =
  let st = Random.State.make [| 0xC0FFEE; 2024 |] in
  for i = 1 to 300 do
    let v = gen_value st 4 in
    let s = Json.to_string v in
    match Json.parse s with
    | Ok v' ->
      if v' <> v then
        Alcotest.fail
          (Printf.sprintf "iteration %d: %s does not reparse to itself" i s)
    | Error e -> Alcotest.fail (Printf.sprintf "iteration %d: %s: %s" i s e)
  done

(* ----- frame codec (the serve wire protocol) ----- *)

let frame_error dec =
  match Json.Frame.next dec with
  | `Error msg -> msg
  | `Frame _ -> Alcotest.fail "expected a framing error, got a frame"
  | `Await -> Alcotest.fail "expected a framing error, got Await"

let test_frame_roundtrip () =
  let vals =
    [
      Json.Null;
      Json.Obj [ ("req", Json.Str "stats") ];
      Json.List [ Json.Int 1; Json.Str "x\n\"y" ];
    ]
  in
  let stream = String.concat "" (List.map Json.Frame.encode vals) in
  let dec = Json.Frame.decoder () in
  Json.Frame.feed dec stream;
  List.iter
    (fun v ->
      match Json.Frame.next dec with
      | `Frame v' -> Alcotest.(check string) "frame round-trips"
          (Json.to_string v) (Json.to_string v')
      | `Error e -> Alcotest.fail e
      | `Await -> Alcotest.fail "decoder starved")
    vals;
  (match Json.Frame.next dec with
  | `Await -> ()
  | _ -> Alcotest.fail "stream should be drained");
  Alcotest.(check int) "no pending bytes" 0 (Json.Frame.pending dec)

let test_frame_incremental () =
  (* feeding one byte at a time must produce the same frames *)
  let stream =
    Json.Frame.encode_string {|{"a":1}|} ^ Json.Frame.encode_string {|[2,3]|}
  in
  let dec = Json.Frame.decoder () in
  let got = ref [] in
  String.iter
    (fun c ->
      Json.Frame.feed dec (String.make 1 c);
      let rec drain () =
        match Json.Frame.next dec with
        | `Frame v -> got := Json.to_string v :: !got;
          drain ()
        | `Await -> ()
        | `Error e -> Alcotest.fail e
      in
      drain ())
    stream;
  Alcotest.(check (list string))
    "both frames, in order"
    [ {|{"a":1}|}; {|[2,3]|} ]
    (List.rev !got)

let test_frame_truncated () =
  (* a frame cut off mid-payload awaits; EOF detection is the session
     loop's job (pending > 0) *)
  let full = Json.Frame.encode_string {|{"req":"verify"}|} in
  let dec = Json.Frame.decoder () in
  Json.Frame.feed dec (String.sub full 0 (String.length full - 5));
  (match Json.Frame.next dec with
  | `Await -> ()
  | _ -> Alcotest.fail "truncated frame must Await");
  Alcotest.(check bool) "bytes pending" true (Json.Frame.pending dec > 0);
  (* completing the frame recovers it *)
  Json.Frame.feed dec (String.sub full (String.length full - 5) 5);
  match Json.Frame.next dec with
  | `Frame _ -> ()
  | _ -> Alcotest.fail "completed frame must decode"

let test_frame_oversized () =
  let dec = Json.Frame.decoder ~max_length:64 () in
  Json.Frame.feed dec "1000000\n";
  let msg = frame_error dec in
  Alcotest.(check bool) "oversized reported" true
    (String.length msg > 0
    && String.sub msg 0 (min 9 (String.length msg)) = "oversized");
  (* sticky: feeding more does not resurrect the decoder *)
  Json.Frame.feed dec "4\nnull\n";
  ignore (frame_error dec)

let test_frame_bad_prefix () =
  List.iter
    (fun junk ->
      let dec = Json.Frame.decoder () in
      Json.Frame.feed dec junk;
      ignore (frame_error dec))
    [
      "abc\nnull\n" (* not digits *);
      "-4\nnull\n" (* negative *);
      "4 \nnull\n" (* embedded space *);
      "99999999999999999999\n" (* overflows int parsing *);
      String.make 64 '1' (* no newline within the prefix digit limit *);
    ]

let test_frame_trailing_garbage () =
  (* a frame whose terminator byte is not '\n' is a protocol error, not
     a silently resynchronized stream *)
  let dec = Json.Frame.decoder () in
  Json.Frame.feed dec "4\nnullX";
  ignore (frame_error dec);
  (* payload that parses but with junk inside the declared length *)
  let dec2 = Json.Frame.decoder () in
  Json.Frame.feed dec2 "9\nnull junk\n";
  match Json.Frame.next dec2 with
  | `Error msg ->
    Alcotest.(check bool) "payload error" true
      (String.length msg >= 3 && String.sub msg 0 3 = "bad")
  | _ -> Alcotest.fail "garbage payload must error"

let frame_tests =
  [
    case "encode/decode round-trip" test_frame_roundtrip;
    case "byte-at-a-time incremental decode" test_frame_incremental;
    case "truncated frame awaits, then completes" test_frame_truncated;
    case "oversized length prefix is a sticky error" test_frame_oversized;
    case "garbage length prefixes error cleanly" test_frame_bad_prefix;
    case "trailing garbage errors cleanly" test_frame_trailing_garbage;
  ]

let () =
  Alcotest.run "obs"
    [
      ( "trace",
        [
          case "span nesting" test_span_nesting;
          case "counters" test_counters;
          case "subscriber re-entrancy rejected" test_subscribe_reentrancy;
          case "noop records nothing" test_noop_trace_records_nothing;
        ] );
      ( "shards",
        [
          case "merged stream equals sequential run" test_trace_fork_join;
          case "metrics shards merge in index order" test_metrics_fork_join;
        ] );
      ( "prof",
        [
          case "histogram percentiles" test_hist_percentiles;
          case "span aggregation and GC deltas" test_prof_span;
          case "noop profiler" test_prof_noop;
        ] );
      ( "rounds-integration",
        [
          case "ledger drives the clock" test_rounds_drive_clock;
          case "rounds to_json" test_rounds_to_json;
        ] );
      ( "export",
        [
          case "jsonl well-formed" test_jsonl_wellformed;
          case "chrome well-formed" test_chrome_wellformed;
          case "chrome round-trip: B/E pairing, monotone ts"
            test_chrome_roundtrip;
          case "json validator" test_json_check;
        ] );
      ( "json-parse",
        [
          case "parse unit cases" test_json_parse_units;
          case "round-trip property" test_json_roundtrip_property;
        ] );
      ("frame", frame_tests);
      ( "metrics",
        [
          case "series sums to messages" test_series_sums_to_messages;
          case "engine agreement" test_metrics_vs_engine;
        ] );
      ( "neutrality",
        [
          case "ecss2 unchanged" test_ecss2_unchanged;
          slow_case "kecss unchanged" test_kecss_unchanged;
          slow_case "ecss3 unchanged" test_ecss3_unchanged;
        ] );
    ]
