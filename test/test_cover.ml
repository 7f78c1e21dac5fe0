open Kecss_graph
open Kecss_core
open Common

(* a random set-cover instance *)
let random_problem rng ~elements ~candidates ~max_w =
  let covered_by = Array.make candidates [] in
  (* guarantee feasibility: element e is covered by candidate e mod c *)
  for e = 0 to elements - 1 do
    let c = e mod candidates in
    covered_by.(c) <- e :: covered_by.(c)
  done;
  for c = 0 to candidates - 1 do
    for e = 0 to elements - 1 do
      if Rng.bernoulli rng 0.25 && not (List.mem e covered_by.(c)) then
        covered_by.(c) <- e :: covered_by.(c)
    done
  done;
  let weights = Array.init candidates (fun _ -> 1 + Rng.int rng max_w) in
  {
    Cover.elements;
    candidates;
    weight = (fun c -> weights.(c));
    covered_by = (fun c f -> List.iter f covered_by.(c));
  }

let strategies =
  [
    ("voting/8", Cover.Voting { divisor = 8 });
    ("voting/2", Cover.Voting { divisor = 2 });
    ("guessing/1", Cover.Guessing { m_phase = 1 });
  ]

let framework_tests =
  [
    case "covers on random instances, all strategies" (fun () ->
        let rng = Rng.create ~seed:1 in
        for trial = 1 to 8 do
          let p =
            random_problem rng ~elements:(10 + (trial * 7)) ~candidates:12
              ~max_w:9
          in
          List.iter
            (fun (name, s) ->
              let r = Cover.solve (Rng.create ~seed:trial) p s in
              check_is (name ^ " is a cover") (Cover.is_cover p r.Cover.chosen);
              check_int (name ^ " weight consistent")
                (Bitset.fold (fun c acc -> acc + p.Cover.weight c) r.Cover.chosen 0)
                r.Cover.weight)
            strategies
        done);
    case "voting invariant: weight <= divisor * cost_sum" (fun () ->
        let rng = Rng.create ~seed:2 in
        for trial = 1 to 8 do
          let p = random_problem rng ~elements:40 ~candidates:15 ~max_w:20 in
          List.iter
            (fun divisor ->
              let r =
                Cover.solve (Rng.create ~seed:trial) p (Cover.Voting { divisor })
              in
              if r.Cover.forced = 0 then
                check_is
                  (Printf.sprintf "divisor %d invariant" divisor)
                  (float_of_int r.Cover.weight
                  <= (float_of_int divisor *. r.Cover.cost_sum) +. 1e-6))
            [ 2; 4; 8 ]
        done);
    case "truncated run falls back to forced greedy" (fun () ->
        (* with the iteration budget exhausted immediately, the
           unconditional-termination fallback must still return a valid
           cover, via forced greedy steps, without a weight blowup *)
        let rng = Rng.create ~seed:5 in
        let p = random_problem rng ~elements:50 ~candidates:16 ~max_w:9 in
        let total =
          List.init p.Cover.candidates p.Cover.weight
          |> List.fold_left ( + ) 0
        in
        List.iter
          (fun (name, s) ->
            let r = Cover.solve ~max_iterations:0 (Rng.create ~seed:6) p s in
            check_is (name ^ " forced steps fired") (r.Cover.forced > 0);
            check_is (name ^ " still a cover") (Cover.is_cover p r.Cover.chosen);
            check_is (name ^ " weight sane") (r.Cover.weight <= total))
          strategies);
    case "greedy is a cover and a decent yardstick" (fun () ->
        let rng = Rng.create ~seed:3 in
        let p = random_problem rng ~elements:60 ~candidates:20 ~max_w:5 in
        let greedy = Cover.greedy p in
        check_is "cover" (Cover.is_cover p greedy);
        let r = Cover.solve (Rng.create ~seed:4) p (Cover.Voting { divisor = 8 }) in
        let gw = Bitset.fold (fun c acc -> acc + p.Cover.weight c) greedy 0 in
        (* randomized parallel should be within a small factor of greedy *)
        check_is "close to greedy" (r.Cover.weight <= 4 * gw));
    case "uncoverable element rejected" (fun () ->
        let p =
          {
            Cover.elements = 2;
            candidates = 1;
            weight = (fun _ -> 1);
            covered_by = (fun _ f -> f 0);
          }
        in
        (match Cover.solve (Rng.create ~seed:1) p (Cover.Voting { divisor = 8 }) with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument"));
    case "zero-weight candidates are free" (fun () ->
        (* one zero-weight candidate covering everything must win *)
        let p =
          {
            Cover.elements = 10;
            candidates = 3;
            weight = (fun c -> if c = 2 then 0 else 5);
            covered_by =
              (fun c f ->
                if c = 2 then List.iter f (List.init 10 Fun.id)
                else List.iter f (List.init 5 (fun i -> (5 * c) + i)));
          }
        in
        let r = Cover.solve (Rng.create ~seed:1) p (Cover.Voting { divisor = 8 }) in
        check_int "free cover" 0 r.Cover.weight);
    qcheck
      (QCheck.Test.make ~name:"all strategies always cover" ~count:40
         QCheck.(triple (int_bound 100_000) (int_range 1 50) (int_range 1 12))
         (fun (seed, elements, candidates) ->
           let rng = Rng.create ~seed in
           let p = random_problem rng ~elements ~candidates ~max_w:7 in
           List.for_all
             (fun (_, s) ->
               let r = Cover.solve (Rng.create ~seed) p s in
               Cover.is_cover p r.Cover.chosen)
             strategies));
  ]

(* ----- warm start (the serve repair path) ----- *)

let warm_tests =
  [
    case "greedy warm-started from a partial cover still covers" (fun () ->
        let rng = Rng.create ~seed:21 in
        for trial = 1 to 6 do
          let p = random_problem rng ~elements:30 ~candidates:14 ~max_w:9 in
          let full = Cover.greedy p in
          (* keep an arbitrary half of the cover as the warm start *)
          let warm = Bitset.create p.Cover.candidates in
          let i = ref 0 in
          Bitset.iter
            (fun c ->
              if !i mod 2 = 0 then Bitset.add warm c;
              incr i)
            full;
          let r = Cover.greedy ~initial:warm p in
          check_is
            (Printf.sprintf "trial %d covers" trial)
            (Cover.is_cover p r);
          check_is
            (Printf.sprintf "trial %d includes the warm start" trial)
            (Bitset.fold (fun c acc -> acc && Bitset.mem r c) warm true)
        done);
    case "greedy warm-started from a full cover is a fixpoint" (fun () ->
        let rng = Rng.create ~seed:22 in
        let p = random_problem rng ~elements:25 ~candidates:10 ~max_w:5 in
        let full = Cover.greedy p in
        let again = Cover.greedy ~initial:full p in
        Alcotest.(check (list int))
          "unchanged"
          (Bitset.fold (fun c acc -> c :: acc) full [])
          (Bitset.fold (fun c acc -> c :: acc) again []));
    case "solve counts warm candidates in weight but not iterations"
      (fun () ->
        let rng = Rng.create ~seed:23 in
        let p = random_problem rng ~elements:20 ~candidates:8 ~max_w:6 in
        let full = Cover.greedy p in
        let r =
          Cover.solve ~initial:full (Rng.create ~seed:1) p
            (Cover.Voting { divisor = 8 })
        in
        check_int "no iterations needed" 0 r.Cover.iterations;
        check_int "weight is the warm start's"
          (Bitset.fold (fun c acc -> acc + p.Cover.weight c) full 0)
          r.Cover.weight;
        check_is "chosen is the warm start"
          (Bitset.fold (fun c acc -> acc && Bitset.mem r.Cover.chosen c) full
             true));
    case "out-of-range warm candidate is rejected" (fun () ->
        let rng = Rng.create ~seed:24 in
        let p = random_problem rng ~elements:10 ~candidates:5 ~max_w:3 in
        let warm = Bitset.create 16 in
        Bitset.add warm 9;
        match Cover.greedy ~initial:warm p with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "accepted candidate 9 of 5");
  ]

(* ----- level index descending scan (the serve replacement query) ----- *)

let level_index_tests =
  [
    case "levels_desc lists occupied levels in descending order" (fun () ->
        let levels = [| 3; 0; 3; -2; Cost.infinite; 0 |] in
        let t =
          Level_index.create ~universe:6 ~level:(fun c -> levels.(c))
        in
        for c = 0 to 5 do
          Level_index.add t c
        done;
        Alcotest.(check (list int))
          "descending, deduplicated"
          [ Cost.infinite; 3; 0; -2 ]
          (Level_index.levels_desc t);
        (* each listed level is actually inhabited *)
        List.iter
          (fun l ->
            check_is "non-empty bucket" (Level_index.candidates_at t l <> []))
          (Level_index.levels_desc t));
    case "levels_desc tracks touch and retire" (fun () ->
        let levels = [| 5; 5; 1 |] in
        let t =
          Level_index.create ~universe:3 ~level:(fun c -> levels.(c))
        in
        for c = 0 to 2 do
          Level_index.add t c
        done;
        Alcotest.(check (list int)) "initial" [ 5; 1 ]
          (Level_index.levels_desc t);
        (* candidate 0 drops to the bottom; 5 stays inhabited via 1 *)
        levels.(0) <- Cost.useless;
        Level_index.touch t 0;
        Alcotest.(check (list int)) "after touch" [ 5; 1 ]
          (Level_index.levels_desc t);
        levels.(1) <- 1;
        Level_index.touch t 1;
        Alcotest.(check (list int)) "level 5 emptied" [ 1 ]
          (Level_index.levels_desc t);
        Level_index.retire t 2;
        Alcotest.(check (list int)) "after retire" [ 1 ]
          (Level_index.levels_desc t);
        Level_index.retire t 1;
        Alcotest.(check (list int)) "empty index" []
          (Level_index.levels_desc t));
  ]

let mds_tests =
  [
    case "dominating on the pool, both strategies" (fun () ->
        List.iter
          (fun (name, g) ->
            List.iter
              (fun (sname, s) ->
                let r = Mds.solve ~strategy:s ~seed:5 g in
                check_is
                  (Printf.sprintf "%s %s dominating" name sname)
                  (Mds.is_dominating g r.Mds.set))
              strategies)
          (connected_pool ()));
    case "known optima" (fun () ->
        check_int "star" 1 (Bitset.cardinal (Mds.exact (Gen.star 9)));
        check_int "K7" 1 (Bitset.cardinal (Mds.exact (Gen.complete 7)));
        (* a path of 9 vertices needs ceil(9/3) = 3 dominators *)
        check_int "path9" 3 (Bitset.cardinal (Mds.exact (Gen.path 9)));
        check_int "cycle9" 3 (Bitset.cardinal (Mds.exact (Gen.cycle 9))));
    case "framework vs exact on small graphs" (fun () ->
        let rng = Rng.create ~seed:6 in
        for _ = 1 to 5 do
          let g = Gen.random_connected rng 14 0.2 in
          let opt = Bitset.cardinal (Mds.exact g) in
          let r = Mds.solve ~seed:7 g in
          check_is "dominating" (Mds.is_dominating g r.Mds.set);
          check_is "within H_n of optimum"
            (float_of_int r.Mds.size
            <= (float_of_int opt *. (1.0 +. log 14.0)) +. 1.0)
        done);
    case "greedy_size sane" (fun () ->
        let g = Gen.grid 4 6 in
        let gs = Mds.greedy_size g in
        let opt = Bitset.cardinal (Mds.exact g) in
        check_is "greedy between opt and n"
          (gs >= opt && gs < Graph.n g));
    qcheck
      (QCheck.Test.make ~name:"MDS always dominates" ~count:40
         (arb_connected ~max_n:30 ()) (fun params ->
           let g = graph_of_params params in
           Mds.is_dominating g (Mds.solve ~seed:3 g).Mds.set));
  ]

let () =
  Alcotest.run "cover"
    [
      ("framework", framework_tests);
      ("warm-start", warm_tests);
      ("level-index", level_index_tests);
      ("mds", mds_tests);
    ]
