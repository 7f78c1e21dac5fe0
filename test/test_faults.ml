open Kecss_graph
open Kecss_congest
open Kecss_faults
open Common

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

(* ---------- rigged programs ---------- *)

(* vertex 0 sends one token on its port 0 (edge 0) at round 0; every
   vertex counts its receipts *)
let ping_program =
  {
    Network.init = (fun _ -> ref 0);
    step =
      (fun ~round v received inbox out ->
        received := !received + Network.Mail.count inbox;
        if round = 0 && v = 0 then Network.post1_port out ~port:0 7;
        `Idle);
  }

(* v0 pings, v1 echoes anything back; both count receipts *)
let echo_program =
  {
    Network.init = (fun _ -> ref 0);
    step =
      (fun ~round v received inbox out ->
        received := !received + Network.Mail.count inbox;
        if round = 0 && v = 0 then Network.post1_port out ~port:0 1
        else if v = 1 && not (Network.Mail.is_empty inbox) then
          Network.post1_port out ~port:0 2;
        `Idle);
  }

(* v1 stays Active until it has received something — a dropped token
   starves it forever *)
let waiter_program =
  {
    Network.init = (fun _ -> ref 0);
    step =
      (fun ~round v received inbox out ->
        received := !received + Network.Mail.count inbox;
        if round = 0 && v = 0 then begin
          Network.post1_port out ~port:0 7;
          `Idle
        end
        else if v = 1 then if !received > 0 then `Idle else `Active
        else `Idle);
  }

(* every vertex floods all incident edges for [rounds] rounds *)
let flood_program g ~rounds =
  {
    Network.init = (fun _ -> ref 0);
    step =
      (fun ~round v received inbox out ->
        received := !received + Network.Mail.count inbox;
        if round < rounds then
          for i = 0 to Graph.degree g v - 1 do
            Network.post1_port out ~port:i v
          done;
        `Idle);
  }

let counts states = Array.to_list (Array.map (fun r -> !r) states)

let fault_events trace =
  List.filter_map
    (fun e ->
      if e.Kecss_obs.Trace.name = "fault injected" then
        Some e.Kecss_obs.Trace.args
      else None)
    (Kecss_obs.Trace.events trace)

(* ---------- Plan ---------- *)

let plan_tests =
  [
    case "of_spec parses the full grammar" (fun () ->
        match
          Plan.of_spec "drop=0.05,delay=0.1:3,dup=0.02,crash=v17@r40,cut=e3@r0,seed=7"
        with
        | Error e -> Alcotest.fail e
        | Ok p ->
          check_is "drop" (p.Plan.drop = 0.05);
          check_is "delay p" (p.Plan.delay_p = 0.1);
          check_int "delay max" 3 p.Plan.delay_max;
          check_is "dup" (p.Plan.duplicate = 0.02);
          Alcotest.(check (list (pair int int)))
            "crashes" [ (17, 40) ] p.Plan.crashes;
          Alcotest.(check (list (pair int int))) "cuts" [ (3, 0) ] p.Plan.cuts;
          check_int "seed" 7 p.Plan.seed);
    case "of_spec defaults the delay bound to one round" (fun () ->
        match Plan.of_spec "delay=0.5" with
        | Error e -> Alcotest.fail e
        | Ok p -> check_int "max" 1 p.Plan.delay_max);
    case "of_spec rejects malformed input" (fun () ->
        let bad s =
          match Plan.of_spec s with
          | Error _ -> ()
          | Ok _ -> Alcotest.fail ("accepted " ^ s)
        in
        bad "";
        bad "nonsense=1";
        bad "drop=1.5";
        bad "drop=x";
        bad "delay=0.1:0";
        bad "crash=17@r4";
        bad "crash=v17";
        bad "cut=e3@5";
        bad "seed=-2");
    case "to_spec round-trips" (fun () ->
        let p =
          Plan.(
            drop 0.25 ++ delay ~p:0.5 ~max:4 ++ duplicate 0.125
            ++ crash ~vertex:2 ~round:9 ++ cut ~edge:5 ~round:0
            |> with_seed 42)
        in
        match Plan.of_spec (Plan.to_spec p) with
        | Error e -> Alcotest.fail e
        | Ok q -> check_is "identical plan" (p = q));
    case "compose unions independently" (fun () ->
        let p = Plan.(drop 0.5 ++ drop 0.5) in
        check_is "independent union" (abs_float (p.Plan.drop -. 0.75) < 1e-12);
        let q = Plan.(crash ~vertex:1 ~round:0 ++ crash ~vertex:2 ~round:3) in
        check_int "crashes accumulate" 2 (List.length q.Plan.crashes);
        let s = Plan.(with_seed 9 (drop 0.1) ++ with_seed 4 (drop 0.1)) in
        check_int "left seed wins" 9 s.Plan.seed;
        let s' = Plan.(drop 0.1 ++ with_seed 4 (drop 0.1)) in
        check_int "default left yields to right" 4 s'.Plan.seed);
    case "is_empty ignores the seed" (fun () ->
        check_is "empty" (Plan.is_empty Plan.empty);
        check_is "seeded empty" (Plan.is_empty (Plan.with_seed 99 Plan.empty));
        check_is "drop not empty" (not (Plan.is_empty (Plan.drop 0.1))));
    case "ins parses, composes and round-trips" (fun () ->
        (match Plan.of_spec "cut=e3@r0,ins=e3@r5,seed=2" with
        | Error e -> Alcotest.fail e
        | Ok p ->
          Alcotest.(check (list (pair int int))) "cuts" [ (3, 0) ] p.Plan.cuts;
          Alcotest.(check (list (pair int int))) "ins" [ (3, 5) ] p.Plan.ins);
        (match Plan.of_spec "ins=3@r5" with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "accepted ins without the e prefix");
        check_is "ins alone is not empty"
          (not (Plan.is_empty (Plan.insert ~edge:0 ~round:0)));
        let p =
          Plan.(
            cut ~edge:5 ~round:0 ++ insert ~edge:5 ~round:3
            ++ insert ~edge:9 ~round:1 |> with_seed 8)
        in
        match Plan.of_spec (Plan.to_spec p) with
        | Error e -> Alcotest.fail e
        | Ok q -> check_is "identical plan" (p = q));
    qcheck
      (QCheck.Test.make ~name:"of_spec/to_spec round-trip (random plans)"
         ~count:300
         QCheck.(
           tup4
             (list (pair (int_bound 200) (int_bound 50)))
             (list (pair (int_bound 200) (int_bound 50)))
             (list (pair (int_bound 200) (int_bound 50)))
             (int_bound 10000))
         (fun (crashes, cuts, ins, seed) ->
           let p =
             List.fold_left
               (fun acc (v, r) -> Plan.(acc ++ crash ~vertex:v ~round:r))
               Plan.empty crashes
           in
           let p =
             List.fold_left
               (fun acc (e, r) -> Plan.(acc ++ cut ~edge:e ~round:r))
               p cuts
           in
           let p =
             List.fold_left
               (fun acc (e, r) -> Plan.(acc ++ insert ~edge:e ~round:r))
               p ins
           in
           let p = Plan.with_seed (seed + 1) p in
           match Plan.of_spec (Plan.to_spec p) with
           | Ok q -> p = q
           | Error _ -> false));
    case "schedule orders crashes, cuts, then inserts at one round" (fun () ->
        match
          Plan.of_spec
            "ins=e4@r2,cut=e1@r2,crash=v3@r5,ins=e2@r0,crash=v7@r2,cut=e6@r2,\
             crash=v0@r2"
        with
        | Error e -> Alcotest.fail e
        | Ok p ->
          check_is "by round, then kind, then spec order"
            (Plan.schedule p
            = [
                (0, Plan.Insert 2);
                (2, Plan.Crash 7);
                (2, Plan.Crash 0);
                (2, Plan.Cut 1);
                (2, Plan.Cut 6);
                (2, Plan.Insert 4);
                (5, Plan.Crash 3);
              ]));
    case "combinators validate their ranges" (fun () ->
        let raises f =
          match f () with
          | exception Invalid_argument _ -> ()
          | _ -> Alcotest.fail "expected Invalid_argument"
        in
        raises (fun () -> Plan.drop 1.5);
        raises (fun () -> Plan.drop (-0.1));
        raises (fun () -> Plan.delay ~p:0.5 ~max:0);
        raises (fun () -> Plan.crash ~vertex:(-1) ~round:0);
        raises (fun () -> Plan.cut ~edge:0 ~round:(-1)));
  ]

(* ---------- Net ---------- *)

let net_tests =
  [
    case "empty plan behaves exactly like the bare engine" (fun () ->
        let g = Gen.circulant 8 [ 1; 2 ] in
        let p = flood_program g ~rounds:3 in
        let bare_states, bare_rounds, bare_messages = Network.run_counted g p in
        match Net.run_counted ~plan:Plan.empty g (flood_program g ~rounds:3) with
        | Net.Stalled _ -> Alcotest.fail "empty plan stalled"
        | Net.Quiesced { states; rounds; messages; faults } ->
          Alcotest.(check (list int))
            "states" (counts bare_states) (counts states);
          check_int "rounds" bare_rounds rounds;
          check_int "messages" bare_messages messages;
          check_int "no injections" 0 (Net.total faults));
    case "drop loses the message but still counts the send" (fun () ->
        let g = Gen.path 2 in
        match Net.run_counted ~plan:(Plan.drop 1.0) g ping_program with
        | Net.Stalled _ -> Alcotest.fail "stalled"
        | Net.Quiesced { states; messages; faults; _ } ->
          check_int "receiver got nothing" 0 !(states.(1));
          check_int "send still counted" 1 messages;
          check_int "one drop recorded" 1 faults.Net.dropped);
    case "delay defers delivery without losing it" (fun () ->
        let g = Gen.path 2 in
        let plan = Plan.delay ~p:1.0 ~max:3 in
        match Net.run_counted ~plan g ping_program with
        | Net.Stalled _ -> Alcotest.fail "stalled"
        | Net.Quiesced { states; rounds; faults; _ } ->
          check_int "token arrived" 1 !(states.(1));
          check_is "later than the faultless round" (rounds >= 2);
          check_is "within the delay bound" (rounds <= 1 + 3);
          check_int "one delay recorded" 1 faults.Net.delayed);
    case "duplicate delivers two copies of one send" (fun () ->
        let g = Gen.path 2 in
        match Net.run_counted ~plan:(Plan.duplicate 1.0) g ping_program with
        | Net.Stalled _ -> Alcotest.fail "stalled"
        | Net.Quiesced { states; messages; faults; _ } ->
          check_int "two copies received" 2 !(states.(1));
          check_int "one send counted" 1 messages;
          check_int "one duplication recorded" 1 faults.Net.duplicated);
    case "crash-stop silences the echoing vertex" (fun () ->
        let g = Gen.path 2 in
        (match
           Net.run_counted ~plan:(Plan.crash ~vertex:1 ~round:0) g echo_program
         with
        | Net.Stalled _ -> Alcotest.fail "stalled"
        | Net.Quiesced { states; faults; _ } ->
          check_int "no echo came back" 0 !(states.(0));
          check_int "dead vertex counted" 1 faults.Net.crashed);
        (* a crash scheduled after quiescence never fires *)
        match
          Net.run_counted ~plan:(Plan.crash ~vertex:1 ~round:1000) g echo_program
        with
        | Net.Stalled _ -> Alcotest.fail "stalled"
        | Net.Quiesced { states; faults; _ } ->
          check_int "echo received" 1 !(states.(0));
          check_int "crash never activated" 0 faults.Net.crashed);
    case "edge cut severs from its round on" (fun () ->
        let g = Gen.path 2 in
        match
          Net.run_counted ~plan:(Plan.cut ~edge:0 ~round:0) g ping_program
        with
        | Net.Stalled _ -> Alcotest.fail "stalled"
        | Net.Quiesced { states; faults; _ } ->
          check_int "nothing crosses the dead edge" 0 !(states.(1));
          check_int "cut recorded" 1 faults.Net.cut;
          check_int "loss recorded as a drop" 1 faults.Net.dropped);
    case "edge restore revives delivery from its round on" (fun () ->
        (* v0 sends on edge 0 at rounds 0 and 4 (staying active through
           round 4); the cut eats the first send, the restore at round 3
           lets the second one through *)
        let sender ~sends ~until =
          {
            Network.init = (fun _ -> ref 0);
            step =
              (fun ~round v received inbox out ->
                received := !received + Network.Mail.count inbox;
                if v = 0 && List.mem round sends then
                  Network.post1_port out ~port:0 round;
                if v = 0 && round < until then `Active else `Idle);
          }
        in
        let g = Gen.path 2 in
        (match
           Plan.of_spec "cut=e0@r0,ins=e0@r3"
           |> Result.fold ~ok:Fun.id ~error:(fun e -> Alcotest.fail e)
           |> fun plan ->
           Net.run_counted ~plan g (sender ~sends:[ 0; 4 ] ~until:4)
         with
        | Net.Stalled _ -> Alcotest.fail "stalled"
        | Net.Quiesced { states; faults; _ } ->
          check_int "only the post-restore send arrives" 1 !(states.(1));
          check_int "cut recorded" 1 faults.Net.cut;
          check_int "restore recorded" 1 faults.Net.restored;
          check_int "severed send recorded as a drop" 1 faults.Net.dropped;
          check_is "pp mentions restores"
            (contains (Format.asprintf "%a" Net.pp_stats faults) "restored"));
        (* cut -> ins -> cut: the edge dies, revives, dies again *)
        (match
           Plan.of_spec "cut=e0@r0,ins=e0@r3,cut=e0@r6"
           |> Result.fold ~ok:Fun.id ~error:(fun e -> Alcotest.fail e)
           |> fun plan ->
           Net.run_counted ~plan g (sender ~sends:[ 0; 4; 8 ] ~until:8)
         with
        | Net.Stalled _ -> Alcotest.fail "stalled"
        | Net.Quiesced { states; faults; _ } ->
          check_int "only the mid-window send arrives" 1 !(states.(1));
          check_int "both cuts recorded" 2 faults.Net.cut;
          check_int "one restore" 1 faults.Net.restored;
          check_int "two severed sends dropped" 2 faults.Net.dropped);
        (* restoring a never-cut edge is a silent no-op *)
        match
          Net.run_counted
            ~plan:(Plan.insert ~edge:0 ~round:0)
            g (sender ~sends:[ 1 ] ~until:1)
        with
        | Net.Stalled _ -> Alcotest.fail "stalled"
        | Net.Quiesced { states; faults; _ } ->
          check_int "delivery unaffected" 1 !(states.(1));
          check_int "nothing restored" 0 faults.Net.restored;
          check_int "no injections at all" 0 (Net.total faults));
    case "fault-induced starvation becomes a Stalled outcome" (fun () ->
        let g = Gen.path 2 in
        match
          Net.run_counted ~plan:(Plan.drop 1.0) ~max_rounds:50 g waiter_program
        with
        | Net.Quiesced _ -> Alcotest.fail "expected Stalled"
        | Net.Stalled { rounds; active; in_flight; faults } ->
          check_int "gave up at max_rounds" 50 rounds;
          check_int "the starved waiter" 1 active;
          check_int "nothing in flight" 0 in_flight;
          check_int "the dropped token" 1 faults.Net.dropped);
    case "same plan, same fault sequence, same result" (fun () ->
        let plan =
          match Plan.of_spec "drop=0.3,delay=0.3:2,dup=0.3,seed=5" with
          | Ok p -> p
          | Error e -> Alcotest.fail e
        in
        let g = Gen.circulant 8 [ 1; 2 ] in
        let run () =
          let trace = Kecss_obs.Trace.create () in
          let probe = Kecss_obs.Probe.create ~trace () in
          match Net.run_counted ~probe ~plan g (flood_program g ~rounds:3) with
          | Net.Stalled _ -> Alcotest.fail "stalled"
          | Net.Quiesced { states; rounds; messages; faults } ->
            ((counts states, rounds, messages, faults), fault_events trace)
        in
        let outcome1, events1 = run () in
        let outcome2, events2 = run () in
        check_is "identical outcome" (outcome1 = outcome2);
        check_is "events recorded" (events1 <> []);
        check_is "identical fault event stream" (events1 = events2));
    case "delays that reorder a link's messages break the MST by name"
      (fun () ->
        (* the graph of [generate --family random -n 48 -k 2 --extra 40
           --wmax 8]; part 2's pipelines assume FIFO links *)
        let rng = Rng.create ~seed:1 in
        let g =
          Weights.uniform rng ~lo:1 ~hi:8 (Gen.random_k_connected rng 48 2 ~extra:40)
        in
        let plan = Result.get_ok (Plan.of_spec "delay=0.1:3,seed=1") in
        let ledger = Rounds.create ~hook:(Net.hook (Net.injector plan)) () in
        match Mst.run ledger (Rng.create ~seed:1) g with
        | exception Mst.Not_a_tree { edges; n } ->
          check_int "n" 48 n;
          check_is "not n - 1 edges" (edges <> n - 1)
        | _ -> Alcotest.fail "expected Mst.Not_a_tree");
    case "different seeds draw different fault sequences" (fun () ->
        let g = Gen.circulant 8 [ 1; 2 ] in
        let run seed =
          let trace = Kecss_obs.Trace.create () in
          ignore
            (Net.run_counted
               ~probe:(Kecss_obs.Probe.create ~trace ())
               ~plan:(Plan.with_seed seed (Plan.drop 0.3))
               g (flood_program g ~rounds:3));
          fault_events trace
        in
        check_is "streams differ" (run 1 <> run 2));
  ]

(* ---------- Monitor fault attribution ---------- *)

let monitor_tests =
  [
    case "violations before faults, anomalies after" (fun () ->
        let module Obs = Kecss_obs in
        let trace = Obs.Trace.create () in
        let mon = Obs.Monitor.create () in
        Obs.Monitor.attach mon trace;
        let bad_iteration () =
          Obs.Trace.instant trace "iteration outcome"
            ~args:
              [
                ("algo", Obs.Trace.Str "tap"); ("added", Obs.Trace.Int (-1));
                ("remaining", Obs.Trace.Int (-1));
              ]
        in
        bad_iteration ();
        check_int "clean stream: a real violation" 1
          (List.length (Obs.Monitor.violations mon));
        check_is "ok is false" (not (Obs.Monitor.ok mon));
        Obs.Events.fault_injected trace ~kind:"drop" ~round:3 ~vertex:(-1)
          ~edge:0 ~amount:0;
        bad_iteration ();
        check_int "post-fault failure is an anomaly" 1
          (List.length (Obs.Monitor.anomalies mon));
        check_int "violations unchanged" 1
          (List.length (Obs.Monitor.violations mon));
        check_int "fault recognized" 1 (Obs.Monitor.faults_seen mon);
        Alcotest.(check (list (pair string int)))
          "kinds tallied" [ ("drop", 1) ]
          (Obs.Monitor.faults_by_kind mon));
    case "faults alone do not fail the monitor" (fun () ->
        let module Obs = Kecss_obs in
        let trace = Obs.Trace.create () in
        let mon = Obs.Monitor.create () in
        Obs.Monitor.attach mon trace;
        Obs.Events.fault_injected trace ~kind:"delay" ~round:0 ~vertex:(-1)
          ~edge:4 ~amount:2;
        Obs.Events.fault_injected trace ~kind:"crash" ~round:1 ~vertex:3
          ~edge:(-1) ~amount:0;
        check_is "still ok" (Obs.Monitor.ok mon);
        check_int "both recognized" 2 (Obs.Monitor.faults_seen mon));
  ]

(* ---------- Resilience ---------- *)

let resilience_tests =
  [
    case "a verified solution survives everything" (fun () ->
        let g = Gen.harary 4 12 in
        let h = Graph.all_edges_mask g in
        let r =
          Resilience.attack ~trials:32 ~rng:(Rng.create ~seed:3) g ~h ~k:3
        in
        check_is "ok" (Resilience.ok r);
        check_is "no witness" (r.Resilience.witness = None);
        check_int "true lambda" 4 r.Resilience.lambda;
        check_int "margin" 2 r.Resilience.margin;
        check_is "full survival" (r.Resilience.survival_rate = 1.0);
        check_is "residual keeps a guarantee"
          (r.Resilience.worst_residual_lambda >= 2));
    case "a tree claimed as a 2-ECSS dies by a bridge" (fun () ->
        let g = Gen.path 6 in
        let h = Graph.all_edges_mask g in
        let r =
          Resilience.attack ~trials:16 ~rng:(Rng.create ~seed:3) g ~h ~k:2
        in
        check_is "killed" (not (Resilience.ok r));
        check_is "bridge search" (r.Resilience.search = "bridges");
        check_is "zero survival" (r.Resilience.survival_rate = 0.0);
        match r.Resilience.witness with
        | Some [ e ] ->
          let mask = Bitset.copy h in
          Bitset.remove mask e;
          check_is "the witness disconnects" (not (Graph.is_connected ~mask g))
        | _ -> Alcotest.fail "expected a single-bridge witness");
    case "exhaustive witness on a small under-connected claim" (fun () ->
        let g = Gen.cycle 8 in
        let h = Graph.all_edges_mask g in
        let r =
          Resilience.attack ~trials:16 ~rng:(Rng.create ~seed:3) g ~h ~k:3
        in
        check_is "killed" (not (Resilience.ok r));
        (* λ = 2: the exact label census answers before the exhaustive
           scan would *)
        check_is "labels search" (r.Resilience.search = "labels");
        match r.Resilience.witness with
        | Some ids ->
          check_is "within budget" (List.length ids <= 2);
          let mask = Bitset.copy h in
          List.iter (Bitset.remove mask) ids;
          check_is "the witness disconnects" (not (Graph.is_connected ~mask g))
        | None -> Alcotest.fail "expected a witness");
    case "karger witness beyond the exhaustive bound" (fun () ->
        let g = Gen.cycle 20 in
        let h = Graph.all_edges_mask g in
        let r =
          Resilience.attack ~trials:16 ~rng:(Rng.create ~seed:3) g ~h ~k:3
        in
        check_is "killed" (not (Resilience.ok r));
        (* λ = 2: the exact label census answers before Karger would *)
        check_is "labels search" (r.Resilience.search = "labels");
        match r.Resilience.witness with
        | Some ids ->
          let mask = Bitset.copy h in
          List.iter (Bitset.remove mask) ids;
          check_is "the witness disconnects" (not (Graph.is_connected ~mask g))
        | None -> Alcotest.fail "expected a witness");
    (* past the census's sizes (λ ≥ 4) the search is exhaustive up to
       n = 16 and Karger beyond *)
    case "exhaustive witness at lambda 4" (fun () ->
        let g = Gen.harary 4 12 in
        let h = Graph.all_edges_mask g in
        let r = Resilience.attack ~trials:16 ~rng:(Rng.create ~seed:3) g ~h ~k:5 in
        check_is "killed" (not (Resilience.ok r));
        check_is "exhaustive search" (r.Resilience.search = "exhaustive");
        match r.Resilience.witness with
        | Some ids ->
          check_int "a 4-cut" 4 (List.length ids);
          let mask = Bitset.copy h in
          List.iter (Bitset.remove mask) ids;
          check_is "the witness disconnects" (not (Graph.is_connected ~mask g))
        | None -> Alcotest.fail "expected a witness");
    case "karger witness at lambda 4 beyond the exhaustive bound" (fun () ->
        let g = Gen.harary 4 20 in
        let h = Graph.all_edges_mask g in
        let r = Resilience.attack ~trials:16 ~rng:(Rng.create ~seed:3) g ~h ~k:5 in
        check_is "killed" (not (Resilience.ok r));
        check_is "karger search" (r.Resilience.search = "karger");
        match r.Resilience.witness with
        | Some ids ->
          check_int "a 4-cut" 4 (List.length ids);
          let mask = Bitset.copy h in
          List.iter (Bitset.remove mask) ids;
          check_is "the witness disconnects" (not (Graph.is_connected ~mask g))
        | None -> Alcotest.fail "expected a witness");
    case "a non-spanning subgraph is trivially dead" (fun () ->
        let g = Gen.cycle 5 in
        let h = Graph.no_edges_mask g in
        Bitset.add h 0;
        let r =
          Resilience.attack ~trials:8 ~rng:(Rng.create ~seed:3) g ~h ~k:2
        in
        check_is "not spanning" (not r.Resilience.spanning);
        check_is "empty witness" (r.Resilience.witness = Some []);
        check_is "killed" (not (Resilience.ok r)));
    case "the attack is deterministic given the rng" (fun () ->
        let g = Gen.harary 3 14 in
        let h = Graph.all_edges_mask g in
        let attack () =
          Resilience.attack ~trials:24 ~rng:(Rng.create ~seed:11) g ~h ~k:3
        in
        check_is "identical reports" (attack () = attack ()));
    case "the JSON report carries the schema tag" (fun () ->
        let g = Gen.cycle 5 in
        let h = Graph.all_edges_mask g in
        let r =
          Resilience.attack ~trials:4 ~rng:(Rng.create ~seed:3) g ~h ~k:2
        in
        let s = Kecss_obs.Json.to_string (Resilience.to_json r) in
        check_is "schema" (contains s "\"schema\":\"kecss-resilience/1\"");
        check_is "verdict" (contains s "\"ok\":true"));
  ]

let () =
  Alcotest.run "faults"
    [
      ("plan", plan_tests);
      ("net", net_tests);
      ("monitor", monitor_tests);
      ("resilience", resilience_tests);
    ]
