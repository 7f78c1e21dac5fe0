(* Golden pins for the seeded covering solvers (n <= 64). Each instance
   runs on a ledger carrying a recording trace with the invariant monitor
   attached, and pins the solution's edge ids, the round total, and the
   digests of Rounds.to_json and of the Export.jsonl event stream. The
   covering loops may be restructured freely, but these values must not
   move: a change here is a change of behaviour.

   The sequential baselines and the tree sweeps are pinned the same way:
   Greedy's picks, FT-MST's mask and swap array, and the unweighted
   2-ECSS solution. The engine's metrics series, causal ids and flight
   rings are pinned on one 2-ECSS and one unweighted 3-ECSS solve, plain
   and under fault plans, and so is the order in which the primitives
   see their mail.

   To regenerate after an intended behaviour change, set the expected
   string of a case to "" and run dune exec test/test_golden.exe; the
   failing case prints the value it received. *)

open Kecss_graph
open Kecss_congest
open Kecss_core
open Kecss_obs
open Common

let digest s = Digest.to_hex (Digest.string s)
let ids s = String.concat "," (List.map string_of_int (Bitset.elements s))

let weighted ~n ~k ~seed =
  let rng = Rng.create ~seed in
  Weights.uniform rng ~lo:1 ~hi:(4 * n) (Gen.random_k_connected rng n k ~extra:n)

(* run [solve] on a traced, monitored ledger and render what it pins *)
let traced solve () =
  let tr = Trace.create () in
  let mon = Monitor.create () in
  Monitor.attach mon tr;
  let ledger = Rounds.create ~trace:tr () in
  let sol = solve ledger in
  check_is "no monitor violations" (Monitor.ok mon);
  Printf.sprintf "ids=%s rounds=%d ledger=%s trace=%s" (ids sol)
    (Rounds.total ledger)
    (digest (Rounds.to_json ledger))
    (digest (Export.jsonl tr))

let ecss2 ?tap_config g ledger =
  (Ecss2.solve_with ?tap_config ledger (Rng.create ~seed:1) g).Ecss2.solution

let kecss ?augk_config ~k g ledger =
  (Kecss.solve_with ?augk_config ledger (Rng.create ~seed:1) g ~k).Kecss.solution

(* FT-MST pins its swap array beside the traced mask *)
let ft_mst g () =
  let swap = ref [||] in
  let pinned =
    traced
      (fun l ->
        let r = Ft_mst.build_with l (Rng.create ~seed:1) g in
        swap := r.Ft_mst.swap;
        r.Ft_mst.mask)
      ()
  in
  Printf.sprintf "%s swap=%s" pinned
    (String.concat "," (Array.to_list (Array.map string_of_int !swap)))

(* The engine's own telemetry, which the ledger and trace pins do not
   cover: a solve on every recorder, optionally under a fault plan, pins
   how the run ends, the injector's stats and the digests of the metrics
   series, the causal report and the flight rings. *)
let recorded ?faults solve () =
  let trace = Trace.create () in
  let metrics = Metrics.create ~trace () in
  let causal = Causal.create () in
  let flight = Flight.create () in
  let inj =
    Option.map
      (fun spec ->
        Kecss_faults.Net.injector ~trace
          (Result.get_ok (Kecss_faults.Plan.of_spec spec)))
      faults
  in
  let ledger =
    Rounds.create ~trace ~metrics ~causal ~flight
      ?hook:(Option.map Kecss_faults.Net.hook inj)
      ()
  in
  let ending =
    match solve ledger with
    | sol -> "ids=" ^ ids sol
    | exception e -> Printexc.to_string e
  in
  let causal_json =
    Json.to_string
      (Export.causal_to_json ~total_rounds:(Rounds.total ledger)
         ~total_messages:(Rounds.total_messages ledger)
         ~rounds_by_category:(Rounds.by_category ledger)
         ~messages_by_category:(Rounds.messages_by_category ledger)
         (Causal.analyze causal))
  in
  Printf.sprintf "%s%s metrics=%s causal=%s flight=%s" ending
    (match inj with
    | Some inj ->
      Format.asprintf " stats=%a" Kecss_faults.Net.pp_stats
        (Kecss_faults.Net.stats inj)
    | None -> "")
    (digest (Json.to_string (Metrics.to_json metrics)))
    (digest causal_json)
    (digest (Json.to_string (Flight.to_json ~reason:"pin" flight)))

(* What programs observe of the engine's delivery and send order, read
   through the primitives' own results: [exchange]'s inbox lists (edge
   ids and payload words, in list order), [down_pipeline]'s received
   lists, [up_pipeline_merge]'s root lists under an order-sensitive
   combine, and a [wave_up] whose value hashes its children's values in
   the order it got them. Payload lengths vary from 0 to the cap, so a
   word lost or reordered anywhere moves a digest. Optionally under a
   fault plan, where each primitive's outcome (a stall included) is
   pinned in turn on one injector. *)
let order ?faults g () =
  let inj =
    Option.map
      (fun spec ->
        Kecss_faults.Net.injector (Result.get_ok (Kecss_faults.Plan.of_spec spec)))
      faults
  in
  let ledger = Rounds.create ?hook:(Option.map Kecss_faults.Net.hook inj) () in
  let words a = String.concat "." (Array.to_list (Array.map string_of_int a)) in
  let pairs l =
    String.concat ";" (List.map (fun (x, a) -> string_of_int x ^ ":" ^ words a) l)
  in
  let lists a = String.concat "|" (Array.to_list (Array.map pairs a)) in
  let outcome name f =
    match f () with
    | s -> Printf.sprintf "%s=%s" name (digest s)
    | exception e -> Printf.sprintf "%s=%s" name (Printexc.to_string e)
  in
  let forest = Forest.of_rooted_tree (Rooted_tree.bfs_tree g ~root:0) in
  let parts =
    [
      outcome "exchange" (fun () ->
          lists
            (Prim.exchange ledger g (fun v ->
                 List.init (Graph.degree g v) (fun i ->
                     let e = Graph.adj_eid_at g v i in
                     {
                       Network.edge = e;
                       payload =
                         Array.init ((v + i) mod (Network.cap_words + 1)) (fun j ->
                             (v * 1000) + (e * 10) + j);
                     }))));
      outcome "down_pipeline" (fun () ->
          lists
            (Prim.down_pipeline ~record:true ledger forest ~emit:(fun v ->
                 List.init (v mod 3) (fun i ->
                     Array.init ((v + i) mod Network.cap_words) (fun j ->
                         (v * 100) + (i * 10) + j)))));
      outcome "up_pipeline_merge" (fun () ->
          lists
            (Prim.up_pipeline_merge ledger forest
               ~emit:(fun v ->
                 List.init (v mod 4) (fun i ->
                     ((v + (i * 7)) mod 11 + (i * 11), [| v; i |])))
               ~combine:(fun a b -> [| (a.(0) * 31) + b.(0); a.(1) - b.(1) |])));
      outcome "wave_up" (fun () ->
          words
            (Array.map
               (fun a -> a.(0))
               (Prim.wave_up ledger forest ~value:(fun v kids ->
                    [|
                      List.fold_left
                        (fun acc k -> ((acc * 1_000_003) + k.(0)) land 0xFFFFFFF)
                        v kids;
                    |]))));
    ]
  in
  Printf.sprintf "%s rounds=%d ledger=%s%s" (String.concat " " parts)
    (Rounds.total ledger)
    (digest (Rounds.to_json ledger))
    (match inj with
    | Some inj ->
      Format.asprintf " stats=%a" Kecss_faults.Net.pp_stats
        (Kecss_faults.Net.stats inj)
    | None -> "")

let greedy solve () = "ids=" ^ ids (solve ())

let greedy_tap g =
  ids (Kecss_baselines.Greedy.tap g (Rooted_tree.bfs_tree g ~root:0))

let mds strategy g () =
  let r = Mds.solve ~strategy ~seed:3 g in
  Printf.sprintf "ids=%s iterations=%d" (ids r.Mds.set) r.Mds.iterations

let cases =
  let g2 = weighted ~n:48 ~k:2 ~seed:11 in
  let zeros =
    Weights.zero_some (Rng.create ~seed:12) ~fraction:0.15
      (weighted ~n:40 ~k:2 ~seed:12)
  in
  let g3 = weighted ~n:32 ~k:3 ~seed:13 in
  let u3 =
    let rng = Rng.create ~seed:14 in
    Gen.random_k_connected rng 40 3 ~extra:40
  in
  let ecss3u l = (Ecss3.solve_with l (Rng.create ~seed:1) u3).Ecss3.solution in
  let w3 = weighted ~n:40 ~k:3 ~seed:15 in
  (* wide weights and many chords: at p = 1 the MST filter has cycles to cut *)
  let dense =
    let rng = Rng.create ~seed:17 in
    Weights.uniform rng ~lo:1 ~hi:4096 (Gen.random_k_connected rng 64 2 ~extra:128)
  in
  let gm = Gen.random_connected (Rng.create ~seed:16) 64 0.08 in
  [
    ( "ecss2",
      "ids=0,1,2,3,5,6,7,9,10,11,13,14,16,18,22,23,24,25,26,29,30,31,32,33,34,35,37,38,39,40,41,42,43,44,47,51,52,57,59,60,63,64,65,67,68,69,71,73,74,76,78,80,81,82,83,84,85,86,88,89,90,94 rounds=502 ledger=46afe5f57be681f81d5f1f17d5ce1513 trace=593052455d5cc4689ebc8fae4571ad4a",
      traced (ecss2 g2) );
    ( "ecss2 zero weights, vote divisor 2",
      "ids=1,3,5,8,10,11,13,15,18,19,20,21,22,23,25,26,28,29,30,31,32,33,37,38,39,40,41,42,44,46,48,49,50,52,53,54,55,57,59,60,61,62,64,66,67,68,69,71,72,74,75,76,77 rounds=468 ledger=ed28f3bdf416964b593841c820e04588 trace=a47f0ac43c84b1d1dc0ef9398a1b1abb",
      traced
        (ecss2
           ~tap_config:{ (Tap.default_config (Graph.n zeros)) with vote_divisor = 2 }
           zeros) );
    ( "kecss k=3",
      "ids=0,2,3,4,5,7,9,10,14,16,17,18,21,22,23,24,25,26,27,29,32,35,36,39,40,41,42,43,44,45,49,50,52,53,54,58,60,61,62,63,64,69,70,73,74,79,81,82,83,84,88,89,93,94 rounds=37222 ledger=813e4289b69ebdbc91ae050e0fc0ba9f trace=b17d25594a447211ac43dbbae3ca62d2",
      traced (kecss ~k:3 g3) );
    ( "kecss k=2 with p pinned to 1, without the MST filter",
      "ids=0,2,3,4,5,6,7,8,10,12,14,15,19,20,22,25,28,30,31,32,33,34,36,38,39,41,42,43,45,46,47,48,50,52,54,55,57,58,60,62,63,64,67,68,71,72,73,75,77,79,80,81,84,85,86,88,89,90,92,93,104,107,108,109,116,119,120,122,126,135,136,137,142,143,144,145,146,149,150,152,155,156,157,159,162,164,165,169,170,171,172,173,174,176,177,178,179,180,183,184,185,189,191 rounds=1895 ledger=40552abbf98d9871503649056613fe0d trace=125a3f69923168c7b5cc7dc615b24869",
      traced
        (kecss ~k:2
           ~augk_config:
             { (Augk.default_config (Graph.n dense)) with
               use_mst_filter = false;
               max_iterations = 0;
             }
           dense) );
    ( "kecss k=2 with p pinned to 1",
      "ids=0,2,3,4,5,6,7,8,10,12,14,15,19,20,22,25,28,30,31,32,33,34,36,38,39,41,42,43,45,46,47,48,50,52,54,55,57,58,60,62,63,64,67,68,71,72,73,75,77,79,80,81,84,85,86,88,89,90,92,93,104,107,108,109,116,119,120,122,126,135,136,137,142,143,144,145,146,149,150,152,156,157,159,162,164,165,169,170,171,172,173,174,176,177,178,180,183,184,185,189,191 rounds=1893 ledger=83ef109df3f0abd15982d32bea92483b trace=3f600596f13d130508ed089acb339bb0",
      traced
        (kecss ~k:2
           ~augk_config:{ (Augk.default_config (Graph.n dense)) with max_iterations = 0 }
           dense) );
    ( "kecss k=3 with p pinned to 1",
      "ids=0,2,3,4,5,7,8,9,10,11,13,14,16,17,18,19,21,22,23,24,25,26,27,29,32,35,36,37,38,39,40,41,42,43,44,45,49,50,52,53,54,55,58,60,62,63,64,65,69,70,73,74,77,79,81,83,84,87,88,93,94 rounds=1969 ledger=ee118d554afe956e47103c3659603bb3 trace=51c872fec7027eb745c3b933e94e7c3c",
      traced
        (kecss ~k:3
           ~augk_config:{ (Augk.default_config (Graph.n g3)) with max_iterations = 0 }
           g3) );
    ( "ecss3 unweighted",
      "ids=0,1,2,3,4,5,6,8,10,12,13,15,17,21,23,24,25,27,29,30,32,33,34,35,37,38,45,46,48,49,51,52,53,54,55,56,58,59,60,61,65,66,67,68,70,75,80,82,84,85,86,87,88,93,95,98,99,102,103,104,106,107,108,109,110,111,112,113 rounds=2735 ledger=8fdb5fa9d7e57a4dfa1f203d5158627a trace=97df363bd90458c7c7186d61e0c7ea93",
      traced ecss3u );
    ( "ecss3 weighted",
      "ids=0,3,4,5,6,7,9,11,12,14,15,19,24,25,27,28,29,30,31,33,37,38,40,41,43,44,47,48,51,52,53,55,56,57,58,59,60,62,64,65,69,72,73,74,77,80,81,82,84,86,88,89,90,91,94,95,96,97,100,101,102,103,105,107,111,113,117,119 rounds=475 ledger=1c68f6bffb01bcec5e43fb02df141682 trace=cfec618fb09ac97d740025741730fe18",
      traced (fun l ->
          (Ecss3.solve_weighted_with l (Rng.create ~seed:1) w3).Ecss3.solution) );
    ( "greedy kecss k=2 zero weights",
      "ids=1,3,5,8,10,12,13,15,18,19,20,21,22,23,26,28,29,30,31,32,33,37,38,39,40,41,42,44,46,48,49,50,52,54,55,56,57,59,60,61,62,63,64,65,67,68,69,72,74,76,77,78",
      greedy (fun () -> Kecss_baselines.Greedy.kecss zeros ~k:2) );
    ( "greedy kecss k=3",
      "ids=0,2,3,4,5,7,8,9,10,14,16,18,19,21,22,23,24,25,26,27,29,32,35,36,39,41,42,43,44,45,48,49,50,52,54,55,56,58,60,61,62,63,64,69,70,73,74,79,81,83,84,88,92,93,94",
      greedy (fun () -> Kecss_baselines.Greedy.kecss g3 ~k:3) );
    ( "greedy tap, zero and unit weights",
      "zeros=1,5,8,15,19,23,26,28,31,38,41,42,48,52,54,55,60,67,77 unit=1,8,17,18,20,24,33,37,43,50,54,99",
      fun () -> Printf.sprintf "zeros=%s unit=%s" (greedy_tap zeros) (greedy_tap u3) );
    ( "ft_mst",
      "ids=0,1,2,3,4,5,6,7,8,9,10,11,12,14,15,17,18,22,23,24,25,26,29,30,31,32,33,34,35,37,38,39,40,41,42,43,45,46,47,49,51,52,54,55,56,57,59,60,64,67,68,69,70,71,72,73,74,75,76,77,81,82,83,84,85,86,87,88,89,90,92,94 rounds=360 ledger=5c1e9c79f98768b5506af2e0f5af1965 trace=36fda5e513f28fb8a0a6db9db109836f swap=-1,92,24,38,70,12,55,75,75,37,70,2,6,72,92,70,77,31,24,92,45,92,46,56,92,87,11,17,77,72,49,92,92,86,4,75,8,31,54,2,6,70,15,75,70,45,92,55",
      ft_mst g2 );
    ( "ecss2 engine telemetry",
      "ids=0,1,2,3,5,6,7,9,10,11,13,14,16,18,22,23,24,25,26,29,30,31,32,33,34,35,37,38,39,40,41,42,43,44,47,51,52,57,59,60,63,64,65,67,68,69,71,73,74,76,78,80,81,82,83,84,85,86,88,89,90,94 metrics=cdb9cee60080c9b15c75860d8350504b causal=b7167c6cc2a9167aede4650464460463 flight=9306dd888bd2b9f0e16f92646f1e81d2",
      recorded (ecss2 g2) );
    ( "ecss2 engine telemetry under faults",
      "Kecss_congest.Network.Did_not_quiesce(10768, 4, 0) stats=71 injected (0 dropped, 49 delayed, 21 duplicated, 1 crashed, 0 cut, 0 restored) metrics=25ebf7fedd3d313535065b56d4e4c58d causal=b6fb635b5e1cc6ce25defaa0a0a80a72 flight=c8dcdef7715a9fe1936bca48aa86d04e",
      recorded ~faults:"crash=v3@r40,delay=0.1:2,dup=0.05,seed=5" (ecss2 g2) );
    ( "ecss3 engine telemetry",
      "ids=0,1,2,3,4,5,6,8,10,12,13,15,17,21,23,24,25,27,29,30,32,33,34,35,37,38,45,46,48,49,51,52,53,54,55,56,58,59,60,61,65,66,67,68,70,75,80,82,84,85,86,87,88,93,95,98,99,102,103,104,106,107,108,109,110,111,112,113 metrics=8a50f6efc784ef0b188242918868680b causal=59d590f115c8a1c60ec9b2e6b22b0353 flight=b27fccad6f0848edc6e33a0a84aa5428",
      recorded ecss3u );
    ( "ecss3 engine telemetry under faults",
      "Kecss_congest.Network.Did_not_quiesce(10640, 1, 0) stats=142 injected (0 dropped, 103 delayed, 39 duplicated, 0 crashed, 0 cut, 0 restored) metrics=f51f4b81e233eddc2e47baab0e48e167 causal=ca40f2123d91d68b71d122ef29183b4b flight=d3389b33075b25b40fa6835ab047a85c",
      recorded ~faults:"delay=0.1:2,dup=0.05,seed=7" ecss3u );
    ( "ecss3 engine telemetry under delays",
      "ids=0,1,2,3,4,6,8,10,12,13,15,16,18,19,20,21,23,24,25,26,27,29,30,32,33,34,36,37,40,41,44,45,46,48,49,51,52,53,54,55,58,60,61,66,67,68,70,72,73,76,77,78,81,82,84,87,88,91,95,96,98,101,103,105,107,109,110,118,119 stats=6388 injected (0 dropped, 6388 delayed, 0 duplicated, 0 crashed, 0 cut, 0 restored) metrics=996ef3291a307ea0498564cbee77971b causal=c4a02119c419618da0bcda5f55cb7009 flight=27ea9d55c8bd0aaa1877805243b910a6",
      recorded ~faults:"delay=0.1:2,seed=7" ecss3u );
    ( "engine inbox and send order",
      "exchange=c370451ac4b791c50c5d42f5ca46043a down_pipeline=e94be2ed8b05423b6f96d537319dea6a up_pipeline_merge=1c1e524c008758f7370efcb17cecbfcd wave_up=bce98d668c7abc5286aaa7115b57d503 rounds=46 ledger=d09586ef01aaace5a5539d92b7f67fba",
      order g2 );
    ( "engine inbox and send order under faults",
      "exchange=1017da94934044a8fdbdedecf4011570 down_pipeline=be4f8a21745a0962f9a3ef4dae45cfaa up_pipeline_merge=6e43b62d3c28d55035f0468427630eb5 wave_up=Kecss_congest.Network.Did_not_quiesce(10768, 8, 0) rounds=61 ledger=a8aee16f92ce867f1a0b51f3a9c4a708 stats=168 injected (0 dropped, 105 delayed, 63 duplicated, 0 crashed, 0 cut, 0 restored)",
      order ~faults:"delay=0.15:2,dup=0.1,seed=3" g2 );
    ( "ecss2 unweighted",
      "ids=0,1,2,4,5,6,8,10,12,13,15,21,23,24,25,27,29,30,32,33,34,35,37,38,45,46,48,49,51,53,54,55,58,59,60,66,67,68,70,75,82,84,87,88,93,95,98,102,103,104,107,109,110 rounds=16 ledger=08d394f5157148a41bf8e8ad7636ba70 trace=172252370280dce444ee2ba276d1c46d",
      traced (fun l -> (Ecss2_unweighted.solve_with l u3).Ecss2_unweighted.h) );
    ( "mds voting",
      "ids=1,10,11,16,17,18,20,25,29,32,33,40,41,44,45,57,63 iterations=3",
      mds (Cover.Voting { divisor = 8 }) gm );
    ( "mds guessing",
      "ids=0,1,24,27,29,31,38,39,41,42,43,44,58 iterations=96",
      mds (Cover.Guessing { m_phase = 1 }) gm );
  ]

let () =
  Alcotest.run "golden"
    [
      ( "golden",
        List.map
          (fun (name, expected, run) ->
            case name (fun () -> Alcotest.(check string) name expected (run ())))
          cases );
    ]
