(* Causal tracing, critical-path attribution and the flight recorder. *)

open Kecss_graph
open Kecss_congest
open Kecss_core
open Common
module Obs = Kecss_obs
module Causal = Kecss_obs.Causal
module Flight = Kecss_obs.Flight

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

let count_occurrences hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i acc =
    if i + ln > lh then acc
    else go (i + 1) (if String.sub hay i ln = needle then acc + 1 else acc)
  in
  if ln = 0 then 0 else go 0 0

let with_jobs j f =
  let saved = Kecss_par.Pool.default_jobs () in
  Kecss_par.Pool.set_default_jobs j;
  Fun.protect ~finally:(fun () -> Kecss_par.Pool.set_default_jobs saved) f

(* ---------- the collector in isolation ---------- *)

let unit_tests =
  [
    case "noop collector accepts everything and reports nothing" (fun () ->
        let c = Causal.noop in
        Causal.run_begin c;
        Causal.phase_begin c "p";
        check_int "noop group" 0 (Causal.group c ~parents:[ 3 ]);
        check_int "noop id" (-1) (Causal.on_send c ~src:0 ~dst:1 ~edge:0 ~group:0);
        Causal.on_round c;
        Causal.phase_end c;
        check_int "no messages" 0 (Causal.messages c);
        check_int "no rounds" 0 (Causal.rounds c));
    case "hand-driven two-hop chain" (fun () ->
        (* 0 --a--> 1 --b--> 2, one message per round: depth grows by one
           per hop and both senders sit on the critical path *)
        let c = Causal.create () in
        Causal.run_begin c;
        let g0 = Causal.group c ~parents:[] in
        let a = Causal.on_send c ~src:0 ~dst:1 ~edge:0 ~group:g0 in
        Causal.on_round c;
        let g1 = Causal.group c ~parents:[ a ] in
        let b = Causal.on_send c ~src:1 ~dst:2 ~edge:1 ~group:g1 in
        Causal.on_round c;
        check_is "dense ascending ids" (a = 0 && b = 1);
        let r = Causal.analyze c in
        check_int "two messages" 2 r.Causal.rp_messages;
        check_int "two rounds" 2 r.Causal.rp_rounds;
        check_int "one run" 1 r.Causal.rp_runs;
        check_int "chain of two" 2 r.Causal.rp_critical;
        check_int "one run, one chain" 2 r.Causal.rp_critical_rounds;
        (match r.Causal.rp_chains with
        | chain :: _ ->
          check_int "chain length" 2 chain.Causal.ch_len;
          check_int "endpoint destination" 2 chain.Causal.ch_vertex;
          check_int "first hop round" 0 chain.Causal.ch_first;
          check_int "last hop round" 1 chain.Causal.ch_last
        | [] -> Alcotest.fail "no chain reported");
        check_int "both senders tight" 2 r.Causal.rp_zero_slack);
    case "chains do not span engine runs" (fun () ->
        let c = Causal.create () in
        let hop () =
          Causal.run_begin c;
          let g = Causal.group c ~parents:[] in
          ignore (Causal.on_send c ~src:0 ~dst:1 ~edge:0 ~group:g);
          Causal.on_round c
        in
        hop ();
        hop ();
        let r = Causal.analyze c in
        check_int "two runs" 2 r.Causal.rp_runs;
        check_int "longest chain stays one hop" 1 r.Causal.rp_critical;
        check_int "but both runs charge a chain" 2 r.Causal.rp_critical_rounds);
    case "phase_end on an empty stack raises" (fun () ->
        let c = Causal.create () in
        match Causal.phase_end c with
        | exception Invalid_argument _ -> ()
        | () -> Alcotest.fail "expected Invalid_argument");
  ]

(* ---------- a real solve: attribution consistency ---------- *)

let solve_fixture () =
  let wrng = Rng.create ~seed:42 in
  Weights.uniform wrng ~lo:1 ~hi:30 (Gen.circulant 24 [ 1; 2 ])

let recorded_solve () =
  let g = solve_fixture () in
  let causal = Causal.create () in
  let metrics = Obs.Metrics.create () in
  let ledger = Rounds.create ~metrics ~causal () in
  ignore (Ecss2.solve_with ledger (Rng.create ~seed:1) g);
  (causal, metrics, ledger)

let attribution_tests =
  [
    case "joined recorders analyze like one recording both solves" (fun () ->
        let solve causal seed g =
          ignore
            (Ecss2.solve_with (Rounds.create ~causal ()) (Rng.create ~seed) g)
        in
        let g = solve_fixture () and h = Gen.circulant 16 [ 1; 3 ] in
        let one = Causal.create () in
        solve one 1 g;
        solve one 2 h;
        let first = Causal.create () and second = Causal.create () in
        solve first 1 g;
        solve second 2 h;
        Causal.join first second;
        check_is "identical reports"
          (Causal.analyze ~chains:1000 ~slack:1000 one
          = Causal.analyze ~chains:1000 ~slack:1000 first));
    case "recorder totals equal the engine metrics" (fun () ->
        let causal, metrics, _ = recorded_solve () in
        let s = Obs.Metrics.summary metrics in
        check_int "rounds" s.Obs.Metrics.rounds (Causal.rounds causal);
        check_int "messages" s.Obs.Metrics.messages (Causal.messages causal);
        check_int "runs" s.Obs.Metrics.runs (Causal.runs causal));
    case "per-phase attribution sums to the totals" (fun () ->
        let causal, _, ledger = recorded_solve () in
        let r = Causal.analyze causal in
        let sum f = List.fold_left (fun a row -> a + f row) 0 r.Causal.rp_phases in
        check_int "phase rounds sum to engine rounds" r.Causal.rp_rounds
          (sum (fun p -> p.Causal.ph_rounds));
        check_int "phase messages sum to engine messages" r.Causal.rp_messages
          (sum (fun p -> p.Causal.ph_messages));
        check_int "phase crit hops sum to critical rounds"
          r.Causal.rp_critical_rounds
          (sum (fun p -> p.Causal.ph_crit));
        (* the joined explain table: its ledger-rounds column must sum to
           the ledger's total round count (the acceptance criterion) *)
        let rows =
          Obs.Export.causal_phase_rows
            ~rounds_by_category:(Rounds.by_category ledger)
            ~messages_by_category:(Rounds.messages_by_category ledger)
            r
        in
        let col f = List.fold_left (fun a row -> a + f row) 0 rows in
        check_int "joined rounds column sums to the ledger total"
          (Rounds.total ledger)
          (col (fun (_, rounds, _, _, _) -> rounds));
        check_int "joined messages column sums to the ledger total"
          (Rounds.total_messages ledger)
          (col (fun (_, _, messages, _, _) -> messages)));
    case "critical path bounds and ordering" (fun () ->
        let causal, _, _ = recorded_solve () in
        let r = Causal.analyze causal in
        check_is "some chain exists" (r.Causal.rp_critical >= 1);
        check_is "per-run sum dominates the single longest chain"
          (r.Causal.rp_critical_rounds >= r.Causal.rp_critical);
        check_is "critical rounds lower-bound the counted rounds"
          (r.Causal.rp_critical_rounds <= r.Causal.rp_rounds);
        let rec desc = function
          | (a : Causal.chain) :: (b :: _ as t) ->
            a.Causal.ch_len >= b.Causal.ch_len && desc t
          | _ -> true
        in
        check_is "chains longest first" (desc r.Causal.rp_chains);
        List.iter
          (fun (c : Causal.chain) ->
            check_is "chain fits the longest" (c.Causal.ch_len <= r.Causal.rp_critical);
            check_is "chain rounds ordered" (c.Causal.ch_first <= c.Causal.ch_last))
          r.Causal.rp_chains;
        let rec asc = function
          | (a : Causal.slack_row) :: (b :: _ as t) ->
            a.Causal.sl_slack <= b.Causal.sl_slack && asc t
          | _ -> true
        in
        check_is "slack tightest first" (asc r.Causal.rp_slack);
        check_is "someone is on the critical path" (r.Causal.rp_zero_slack >= 1));
  ]

(* ---------- determinism across pool sizes ---------- *)

let causal_json () =
  let causal, _, ledger = recorded_solve () in
  let r = Causal.analyze causal in
  Obs.Json.to_string
    (Obs.Export.causal_to_json ~total_rounds:(Rounds.total ledger)
       ~total_messages:(Rounds.total_messages ledger)
       ~rounds_by_category:(Rounds.by_category ledger)
       ~messages_by_category:(Rounds.messages_by_category ledger)
       r)

let determinism_tests =
  [
    slow_case "causal JSON is byte-identical at jobs 1 and 4" (fun () ->
        let a = with_jobs 1 causal_json in
        let b = with_jobs 4 causal_json in
        check_is "identical documents" (String.equal a b));
  ]

(* ---------- the flight recorder ---------- *)

let flight_unit_tests =
  [
    case "noop recorder dumps Null" (fun () ->
        Flight.ensure Flight.noop 5;
        Flight.round_begin Flight.noop;
        check_is "null dump" (Flight.to_json ~reason:"x" Flight.noop = Obs.Json.Null));
    case "bad window or capacity raises" (fun () ->
        (match Flight.create ~window:0 () with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "window 0 accepted");
        match Flight.create ~capacity:0 () with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "capacity 0 accepted");
    case "ring keeps only the last entries, chronologically" (fun () ->
        let f = Flight.create ~window:4 ~capacity:4 () in
        Flight.ensure f 2;
        for r = 0 to 9 do
          Flight.round_begin f;
          Flight.on_send f ~vertex:0 ~edge:r ~word:r
        done;
        check_int "ten passes" 10 (Flight.passes f);
        let s = Obs.Json.to_string (Flight.to_json ~reason:"test" f) in
        check_int "ring bounded to capacity" 4 (count_occurrences s "\"round\":");
        check_is "oldest survivor is round 6" (contains s "\"round\":6");
        check_is "latest entry present" (contains s "\"round\":9");
        check_is "overwritten entries gone" (not (contains s "\"round\":5"));
        check_is "recorded counts all pushes" (contains s "\"recorded\":10"));
    case "window filters quiet history per vertex" (fun () ->
        let f = Flight.create ~window:2 ~capacity:8 () in
        Flight.ensure f 1;
        Flight.round_begin f;
        Flight.on_send f ~vertex:0 ~edge:0 ~word:0;
        for _ = 1 to 5 do
          Flight.round_begin f
        done;
        Flight.on_recv f ~vertex:0 ~edge:0 ~word:1;
        let s = Obs.Json.to_string (Flight.to_json ~reason:"test" f) in
        (* the vertex's own latest entry anchors its window: the round-0
           send is long outside it, the round-5 receipt inside *)
        check_int "one entry in the window" 1 (count_occurrences s "\"round\":");
        check_is "the receipt" (contains s "\"kind\":\"recv\""));
  ]

(* a token relayed down a path; every vertex past the crash site starves
   Active forever, so the run ends in Did_not_quiesce *)
let relay_program edges n =
  {
    Network.init = (fun _ -> ref false);
    step =
      (fun ~round v got inbox ->
        if inbox <> [] then got := true;
        if v = 0 then
          ( (if round = 0 then [ { Network.edge = edges.(0); payload = [| 1 |] } ]
             else []),
            `Idle )
        else
          let fwd =
            if inbox <> [] && v < n - 1 then
              [ { Network.edge = edges.(v); payload = [| 1 |] } ]
            else []
          in
          (fwd, if !got then `Idle else `Active));
  }

let stall_dump () =
  let n = 6 in
  let g = Gen.path n in
  let edges =
    Array.init (n - 1) (fun v ->
        match Graph.find_edge g v (v + 1) with
        | Some e -> e
        | None -> Alcotest.fail "path edge missing")
  in
  let plan =
    match Kecss_faults.Plan.of_spec "crash=v3@r1,seed=1" with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let inj = Kecss_faults.Net.injector plan in
  let flight = Flight.create ~window:8 ~capacity:16 () in
  match
    Network.run_counted
      ~probe:(Obs.Probe.create ~flight ())
      ~hook:(Kecss_faults.Net.hook inj)
      ~max_rounds:12 g (relay_program edges n)
  with
  | _ -> Alcotest.fail "expected a stall"
  | exception Network.Did_not_quiesce { rounds; active; in_flight } ->
    check_int "flight clock matches the stall report" rounds
      (Flight.passes flight);
    let stall =
      { Flight.st_rounds = rounds; st_active = active; st_in_flight = in_flight }
    in
    Obs.Json.to_string (Flight.to_json ~stall ~reason:"stalled" flight)

let flight_stall_tests =
  [
    case "crash-induced stall dumps a coherent post-mortem" (fun () ->
        let s = with_jobs 1 stall_dump in
        check_is "schema tag" (contains s "\"schema\":\"kecss-flight/1\"");
        check_is "reason recorded" (contains s "\"reason\":\"stalled\"");
        (* the dump's pass clock and the structured stall agree with the
           engine's Did_not_quiesce payload *)
        check_is "engine passes match max_rounds"
          (contains s "\"engine_passes\":12");
        check_is "stall round embedded" (contains s "\"rounds\":12");
        check_is "the crash is on the record" (contains s "\"kind\":\"crash\"");
        (* every vertex starts active, so the starved ones never flip; the
           relays upstream of the crash flipped idle on receipt *)
        check_is "relays flipped idle on receipt" (contains s "\"kind\":\"idle\"");
        check_is "the token's sends are on the record"
          (contains s "\"kind\":\"send\""));
    slow_case "stall dump is byte-identical at jobs 1 and 4" (fun () ->
        let a = with_jobs 1 stall_dump in
        let b = with_jobs 4 stall_dump in
        check_is "identical dumps" (String.equal a b));
  ]

let () =
  Alcotest.run "causal"
    [
      ("causal-unit", unit_tests);
      ("causal-attribution", attribution_tests);
      ("causal-determinism", determinism_tests);
      ("flight-unit", flight_unit_tests);
      ("flight-stall", flight_stall_tests);
    ]
