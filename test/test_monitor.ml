(* The online invariant monitor and the audit record: rigged event streams
   produce exactly the expected violations, clean solver runs produce
   none, and the extracted coverage curves / JSON records are sound. *)

open Common
open Kecss_graph
open Kecss_congest
open Kecss_core
open Kecss_obs

let ev ?(ts = 0.0) kind name args = { Trace.kind; name; ts; args }

let size algo n =
  ev Trace.Instant "instance size"
    [ ("algo", Trace.Str algo); ("n", Trace.Int n) ]

let iter_begin algo i =
  ev Trace.Span_begin (algo ^ "/iteration") [ ("index", Trace.Int i) ]

let outcome algo ~added ~remaining =
  ev Trace.Instant "iteration outcome"
    [
      ("algo", Trace.Str algo);
      ("added", Trace.Int added);
      ("remaining", Trace.Int remaining);
    ]

let vote ~votes ~ce ~divisor =
  ev Trace.Instant "vote audit"
    [
      ("edge", Trace.Int 3);
      ("votes", Trace.Int votes);
      ("ce", Trace.Int ce);
      ("divisor", Trace.Int divisor);
    ]

let rho algo ~covered ~weight ~level =
  ev Trace.Instant "rho audit"
    [
      ("algo", Trace.Str algo);
      ("edge", Trace.Int 5);
      ("covered", Trace.Int covered);
      ("weight", Trace.Int weight);
      ("level", Trace.Int level);
    ]

let sched algo ~p_exp ~phase ~reset =
  ev Trace.Instant "probability doubling"
    [
      ("algo", Trace.Str algo);
      ("p_exp", Trace.Int p_exp);
      ("phase", Trace.Int phase);
      ("reset", Trace.Bool reset);
    ]

let invariants mon =
  List.map (fun v -> v.Monitor.invariant) (Monitor.violations mon)

let checked events =
  let mon = Monitor.create () in
  Monitor.check_all mon events;
  mon

(* ------------------------------------------------------------------ *)
(* rigged streams                                                      *)
(* ------------------------------------------------------------------ *)

(* the headline rig: a vote below threshold and a coverage regression,
   nothing else — exactly those two violations must surface *)
let test_rigged_two_violations () =
  let mon =
    checked
      [
        size "tap" 16;
        iter_begin "tap" 1;
        vote ~votes:1 ~ce:10 ~divisor:8 (* 8·1 < 10 *);
        outcome "tap" ~added:1 ~remaining:5;
        iter_begin "tap" 2;
        vote ~votes:2 ~ce:16 ~divisor:8 (* 8·2 = 16: exactly at threshold *);
        outcome "tap" ~added:0 ~remaining:7 (* 7 > 5: regression *);
      ]
  in
  check_int "events seen" 7 (Monitor.events_seen mon);
  Alcotest.(check (list string))
    "exactly the two rigged violations"
    [ "vote-threshold"; "coverage-monotone" ]
    (invariants mon)

let test_clean_stream_is_clean () =
  let mon =
    checked
      [
        size "tap" 16;
        iter_begin "tap" 1;
        vote ~votes:2 ~ce:16 ~divisor:8;
        rho "tap" ~covered:5 ~weight:2 ~level:2;
        outcome "tap" ~added:1 ~remaining:5;
        iter_begin "tap" 2;
        outcome "tap" ~added:1 ~remaining:5 (* equal is allowed *);
        iter_begin "tap" 3;
        outcome "tap" ~added:2 ~remaining:0;
        (* a second run resets the baseline: remaining may jump back up *)
        size "tap" 16;
        iter_begin "tap" 1;
        outcome "tap" ~added:0 ~remaining:12;
        (* untracked coverage is skipped *)
        outcome "ecss3" ~added:3 ~remaining:(-1);
      ]
  in
  check_is "no violations" (Monitor.ok mon);
  check_is "report mentions a clean run"
    (let s = Format.asprintf "%a" Monitor.pp_report mon in
     String.length s > 0 && not (String.contains s '['))

let test_rho_rounding () =
  (* 2^2·2 = 8 > 5 but 2^1·2 = 4 ≤ 5, so the exponent must be 2 *)
  let bad = checked [ rho "augk" ~covered:5 ~weight:2 ~level:1 ] in
  Alcotest.(check (list string)) "wrong exponent" [ "rho-rounding" ]
    (invariants bad);
  let useless = checked [ rho "augk" ~covered:0 ~weight:2 ~level:1 ] in
  Alcotest.(check (list string)) "covering nothing" [ "rho-rounding" ]
    (invariants useless);
  (* cross-validate the monitor's independent rounding against Cost.level
     over a seeded sweep: emitting the solver's own level never trips *)
  let st = Random.State.make [| 4242 |] in
  let events = ref [] in
  for _ = 1 to 200 do
    let covered = 1 + Random.State.int st 1000 in
    let weight = Random.State.int st 50 in
    let level = Cost.level ~covered ~weight in
    events := rho "augk" ~covered ~weight ~level :: !events
  done;
  check_is "agrees with Cost.level" (Monitor.ok (checked !events))

let test_probability_schedule () =
  let clean =
    checked
      [
        size "augk" 16;
        sched "augk" ~p_exp:5 ~phase:1 ~reset:true;
        sched "augk" ~p_exp:4 ~phase:2 ~reset:false;
        sched "augk" ~p_exp:3 ~phase:3 ~reset:false;
        sched "augk" ~p_exp:6 ~phase:4 ~reset:true (* new level *);
        sched "augk" ~p_exp:5 ~phase:5 ~reset:false;
      ]
  in
  check_is "doubling schedule accepted" (Monitor.ok clean);
  let skip =
    checked
      [
        sched "augk" ~p_exp:5 ~phase:1 ~reset:true;
        sched "augk" ~p_exp:3 ~phase:2 ~reset:false (* skipped 4 *);
      ]
  in
  Alcotest.(check (list string)) "skipped step" [ "probability-schedule" ]
    (invariants skip);
  let headless = checked [ sched "augk" ~p_exp:4 ~phase:1 ~reset:false ] in
  Alcotest.(check (list string)) "step before any reset"
    [ "probability-schedule" ] (invariants headless);
  let jump =
    checked
      [
        sched "augk" ~p_exp:5 ~phase:1 ~reset:true;
        sched "augk" ~p_exp:4 ~phase:3 ~reset:false (* phase 2 skipped *);
      ]
  in
  Alcotest.(check (list string)) "phase jump" [ "probability-schedule" ]
    (invariants jump);
  let negative = checked [ sched "augk" ~p_exp:(-1) ~phase:1 ~reset:true ] in
  Alcotest.(check (list string)) "p > 1" [ "probability-schedule" ]
    (invariants negative)

let test_iteration_bound () =
  (* n = 4: l = ⌈log₂ 5⌉ = 3, so the TAP bound is 64·9 + 200 + 4 = 780 *)
  let at_bound = checked [ size "tap" 4; iter_begin "tap" 780 ] in
  check_is "at the bound" (Monitor.ok at_bound);
  let beyond = checked [ size "tap" 4; iter_begin "tap" 781 ] in
  Alcotest.(check (list string)) "beyond the bound" [ "iteration-bound" ]
    (invariants beyond);
  (* without an instance size the bound is unknown: nothing to check *)
  let unsized = checked [ iter_begin "tap" 100_000 ] in
  check_is "no bound without instance size" (Monitor.ok unsized)

(* ------------------------------------------------------------------ *)
(* online attachment                                                   *)
(* ------------------------------------------------------------------ *)

let test_subscription_is_online () =
  let tr = Trace.create () in
  let seen = ref [] in
  Trace.subscribe tr (fun e -> seen := e.Trace.name :: !seen);
  let mon = Monitor.create () in
  Monitor.attach mon tr;
  Trace.instant tr "vote audit"
    ~args:
      [
        ("edge", Trace.Int 1);
        ("votes", Trace.Int 0);
        ("ce", Trace.Int 4);
        ("divisor", Trace.Int 8);
      ];
  check_is "subscriber ran at emit time" (!seen = [ "vote audit" ]);
  check_is "monitor saw the event online" (not (Monitor.ok mon));
  (* attaching to the noop trace observes nothing *)
  let mon2 = Monitor.create () in
  Monitor.attach mon2 Trace.noop;
  Trace.instant Trace.noop "vote audit";
  check_int "noop feeds nothing" 0 (Monitor.events_seen mon2)

(* ------------------------------------------------------------------ *)
(* clean solver runs                                                   *)
(* ------------------------------------------------------------------ *)

let monitored () =
  let tr = Trace.create () in
  let mon = Monitor.create () in
  Monitor.attach mon tr;
  (Rounds.create ~trace:tr (), mon)

let test_ecss2_runs_clean () =
  List.iter
    (fun (name, g) ->
      let ledger, mon = monitored () in
      ignore (Ecss2.solve_with ledger (Rng.create ~seed:11) g);
      check_is (name ^ ": events observed") (Monitor.events_seen mon > 0);
      match Monitor.violations mon with
      | [] -> ()
      | v :: _ ->
        Alcotest.fail
          (Format.asprintf "%s: %a" name Monitor.pp_violation v))
    (two_ec_pool ())

let test_kecss_runs_clean () =
  List.iter
    (fun (name, g) ->
      let ledger, mon = monitored () in
      ignore (Kecss.solve_with ledger (Rng.create ~seed:11) g ~k:3);
      match Monitor.violations mon with
      | [] -> ()
      | v :: _ ->
        Alcotest.fail
          (Format.asprintf "%s: %a" name Monitor.pp_violation v))
    (three_ec_pool ())

let test_ecss3_runs_clean () =
  List.iter
    (fun (name, g) ->
      let ledger, mon = monitored () in
      ignore (Ecss3.solve_with ledger (Rng.create ~seed:11) g);
      match Monitor.violations mon with
      | [] -> ()
      | v :: _ ->
        Alcotest.fail
          (Format.asprintf "%s: %a" name Monitor.pp_violation v))
    (three_ec_pool ())

(* a consumer holding only the ledger attaches through its trace *)
let test_rounds_subscribe () =
  let tr = Trace.create () in
  let ledger = Rounds.create ~trace:tr () in
  let count = ref 0 in
  Trace.subscribe (Rounds.trace ledger) (fun _ -> incr count);
  ignore (Ecss2.solve_with ledger (Rng.create ~seed:3) (List.assoc "cycle12" (two_ec_pool ())));
  check_is "ledger subscription delivers events" (!count > 0);
  check_int "every event delivered" (Trace.event_count tr) !count

(* ------------------------------------------------------------------ *)
(* audit records                                                       *)
(* ------------------------------------------------------------------ *)

let test_coverage_curves () =
  let events =
    [
      iter_begin "tap" 1;
      outcome "tap" ~added:1 ~remaining:9;
      iter_begin "tap" 2;
      outcome "tap" ~added:2 ~remaining:4;
      iter_begin "ecss3" 1;
      outcome "ecss3" ~added:1 ~remaining:(-1) (* untracked: dropped *);
      iter_begin "tap" 3;
      outcome "tap" ~added:1 ~remaining:0;
    ]
  in
  match Audit.coverage_curves events with
  | [ ("tap", curve) ] ->
    check_is "indices and remaining paired"
      (curve = [ (1, 9); (2, 4); (3, 0) ])
  | curves ->
    Alcotest.fail
      (Printf.sprintf "expected one tap curve, got %d" (List.length curves))

let test_coverage_from_real_run () =
  let tr = Trace.create () in
  let ledger = Rounds.create ~trace:tr () in
  let g = List.assoc "rand30" (two_ec_pool ()) in
  ignore (Ecss2.solve_with ledger (Rng.create ~seed:11) g);
  match List.assoc_opt "tap" (Audit.coverage_curves (Trace.events tr)) with
  | None -> Alcotest.fail "no tap coverage curve in a traced ecss2 run"
  | Some curve ->
    check_is "curve nonempty" (curve <> []);
    let rems = List.map snd curve in
    check_int "fully covered at the end" 0 (List.nth rems (List.length rems - 1));
    let rec monotone = function
      | a :: (b :: _ as rest) -> a >= b && monotone rest
      | _ -> true
    in
    check_is "curve is non-increasing" (monotone rems)

let test_audit_to_json () =
  let record =
    {
      Audit.algo = "2ecss";
      k = 2;
      n = 12;
      m = 24;
      seed = 7;
      quality =
        {
          Audit.weight = 40;
          edge_count = 14;
          lower_bound = 32;
          greedy_weight = 38;
          (* dyadic, so the "%.12g" JSON rendering reparses exactly *)
          ratio = 40.0 /. 32.0;
          verified = true;
          connectivity = 2;
        };
      cost =
        {
          Audit.rounds = 100;
          messages = 900;
          rounds_by_category = [ ("tap/exchange", 60); ("mst/bfs", 40) ];
          messages_by_category = [ ("tap/exchange", 700); ("mst/bfs", 200) ];
          engine = Metrics.summary (Metrics.create ());
        };
      coverage = [ ("tap", [ (1, 5); (2, 0) ]) ];
      violations =
        (let mon =
           checked [ vote ~votes:0 ~ce:8 ~divisor:8 ]
         in
         Monitor.violations mon);
    }
  in
  let s = Json.to_string (Audit.to_json record) in
  match Json.parse s with
  | Error e -> Alcotest.fail ("audit json invalid: " ^ e)
  | Ok v ->
    check_is "schema field"
      (Option.bind (Json.member "schema" v) Json.to_string_opt
      = Some Audit.schema_version);
    check_is "ratio survives"
      (Option.bind (Json.member "quality" v) (Json.member "ratio")
       |> Fun.flip Option.bind Json.to_float_opt
      = Some (40.0 /. 32.0));
    (match Json.member "violations" v with
    | Some (Json.List [ _ ]) -> ()
    | _ -> Alcotest.fail "expected one violation in the record");
    (* the monitor's own JSON is well-formed too *)
    let mon = checked [ vote ~votes:0 ~ce:8 ~divisor:8 ] in
    check_is "monitor json parses"
      (Result.is_ok (Json.parse (Json.to_string (Monitor.to_json mon))))

let () =
  Alcotest.run "monitor"
    [
      ( "rigged",
        [
          case "two rigged violations, exactly" test_rigged_two_violations;
          case "clean stream" test_clean_stream_is_clean;
          case "rho rounding" test_rho_rounding;
          case "probability schedule" test_probability_schedule;
          case "iteration bound" test_iteration_bound;
        ] );
      ( "attachment",
        [
          case "online subscription" test_subscription_is_online;
          case "rounds subscribe" test_rounds_subscribe;
        ] );
      ( "clean-runs",
        [
          case "ecss2 clean" test_ecss2_runs_clean;
          slow_case "kecss clean" test_kecss_runs_clean;
          slow_case "ecss3 clean" test_ecss3_runs_clean;
        ] );
      ( "audit",
        [
          case "coverage curves" test_coverage_curves;
          case "coverage from a real run" test_coverage_from_real_run;
          case "audit record json" test_audit_to_json;
        ] );
    ]
