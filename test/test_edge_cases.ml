(* Cross-cutting edge cases: multigraphs, tiny instances, accounting,
   and cross-validation between the paper's different algorithms. *)

open Kecss_graph
open Kecss_connectivity
open Kecss_congest
open Kecss_core
open Common

let multigraph_tests =
  [
    case "two vertices, two parallel edges" (fun () ->
        let g = Graph.make ~n:2 [ (0, 1, 3); (0, 1, 7) ] in
        check_is "2EC" (Edge_connectivity.is_k_edge_connected g 2);
        let r = Ecss2.solve ~seed:1 g in
        check_int "takes both" 2 (Bitset.cardinal r.Ecss2.solution);
        check_int "weight" 10 (Graph.mask_weight g r.Ecss2.solution));
    case "two vertices, k parallel edges, k-ECSS picks the cheapest" (fun () ->
        let g =
          Graph.make ~n:2 [ (0, 1, 1); (0, 1, 2); (0, 1, 3); (0, 1, 9); (0, 1, 9) ]
        in
        let r = Kecss.solve ~seed:1 g ~k:3 in
        check_is "3EC" (Verify.check_kecss g r.Kecss.solution ~k:3).Verify.ok;
        check_int "cheapest three" 6 r.Kecss.weight);
    case "parallel edges through the MST" (fun () ->
        let g = Graph.make ~n:3 [ (0, 1, 5); (0, 1, 2); (1, 2, 4); (1, 2, 9) ] in
        let r = Mst.run (Rounds.create ()) (Rng.create ~seed:1) g in
        check_int "weight" 6 (Graph.mask_weight g r.Mst.mask));
    case "triangle with a doubled edge is 2EC without the double" (fun () ->
        let g =
          Graph.make ~n:3 [ (0, 1, 1); (1, 2, 1); (2, 0, 1); (0, 1, 100) ]
        in
        let r = Ecss2.solve ~seed:1 g in
        check_is "skips the expensive parallel"
          (not (Bitset.mem r.Ecss2.solution 3)));
    case "3-ECSS on a multigraph cycle" (fun () ->
        (* doubling every cycle edge makes the cycle 4-edge-connected *)
        let spec =
          List.concat_map
            (fun i -> [ (i, (i + 1) mod 5, 1); (i, (i + 1) mod 5, 1) ])
            [ 0; 1; 2; 3; 4 ]
        in
        let g = Graph.make ~n:5 spec in
        check_is "4EC" (Edge_connectivity.is_k_edge_connected g 4);
        let r = Ecss3.solve ~seed:1 g in
        check_is "3EC" (Verify.check_kecss g r.Ecss3.solution ~k:3).Verify.ok);
  ]

let tiny_tests =
  [
    case "triangle for every algorithm" (fun () ->
        let g = Graph.make ~n:3 [ (0, 1, 2); (1, 2, 3); (2, 0, 4) ] in
        let r2 = Ecss2.solve ~seed:1 g in
        check_int "2-ECSS is the triangle" 9
          (Graph.mask_weight g r2.Ecss2.solution);
        let rk = Kecss.solve ~seed:1 g ~k:2 in
        check_int "generic agrees" 9 rk.Kecss.weight);
    case "K4 unweighted 3-ECSS is K4 minus nothing removable" (fun () ->
        let g = Gen.complete 4 in
        let r = Ecss3.solve ~seed:1 g in
        (* K4 is exactly 3-edge-connected and minimal: all 6 edges needed *)
        check_int "all of K4" 6 r.Ecss3.edge_count);
    case "n=1 graph" (fun () ->
        let g = Graph.make ~n:1 [] in
        check_is "vacuously k-connected"
          (Edge_connectivity.is_k_edge_connected g 5));
  ]

(* Claim 2.1: composing Aug_i keeps every prefix i-edge-connected and the
   total weight is the sum of the levels *)
let composition_tests =
  [
    case "prefix connectivity of the k-ECSS levels" (fun () ->
        let rng = Rng.create ~seed:41 in
        let g =
          Weights.uniform rng ~lo:1 ~hi:40 (Gen.random_k_connected rng 20 4 ~extra:25)
        in
        let r = Kecss.solve ~seed:3 g ~k:4 in
        check_int "level weights sum to the solution" r.Kecss.weight
          (List.fold_left (fun acc li -> acc + li.Kecss.weight_added) 0 r.Kecss.levels);
        check_int "level edges sum"
          (Bitset.cardinal r.Kecss.solution)
          (List.fold_left (fun acc li -> acc + li.Kecss.edges_added) 0 r.Kecss.levels));
    case "TAP and generic Aug_2 agree on validity" (fun () ->
        List.iter
          (fun (name, g) ->
            let r_tap = Ecss2.solve ~seed:9 g in
            let r_gen = Kecss.solve ~seed:9 g ~k:2 in
            check_is (name ^ " tap ok")
              (Verify.check_kecss g r_tap.Ecss2.solution ~k:2).Verify.ok;
            check_is (name ^ " generic ok")
              (Verify.check_kecss g r_gen.Kecss.solution ~k:2).Verify.ok;
            (* both are O(log n) approximations of the same optimum: they
               must be within a log-ish factor of each other *)
            let wt = Graph.mask_weight g r_tap.Ecss2.solution in
            let wg = r_gen.Kecss.weight in
            let lim =
              2.0 +. (8.0 *. log (float_of_int (Graph.n g)))
            in
            check_is (name ^ " comparable")
              (float_of_int (max wt wg) /. float_of_int (min wt wg) <= lim))
          (List.filteri (fun i _ -> i < 4) (two_ec_pool ())));
  ]

let accounting_tests =
  [
    case "scoped categories nest" (fun () ->
        let l = Rounds.create () in
        Rounds.scoped l "outer" (fun () ->
            Rounds.charge l ~category:"x" 3;
            Rounds.scoped l "inner" (fun () -> Rounds.charge l ~category:"y" 4));
        check_int "total" 7 (Rounds.total l);
        Alcotest.(check (list (pair string int)))
          "categories"
          [ ("outer/inner/y", 4); ("outer/x", 3) ]
          (Rounds.by_category l));
    case "message counting on an exchange" (fun () ->
        let g = Gen.cycle 6 in
        let l = Rounds.create () in
        ignore
          (Prim.exchange l g (fun v ->
               List.init (Graph.degree g v) (fun i ->
                   { Network.edge = Graph.adj_eid_at g v i; payload = [| v |] })));
        (* every vertex sends on both incident edges: 2m messages *)
        check_int "messages" (2 * Graph.m g) (Rounds.total_messages l));
    case "bfs message count is at most 2m" (fun () ->
        let g = Gen.random_connected (Rng.create ~seed:5) 40 0.15 in
        let l = Rounds.create () in
        ignore (Prim.bfs_tree l g ~root:0);
        check_is "bounded" (Rounds.total_messages l <= 2 * Graph.m g));
    case "reset clears everything" (fun () ->
        let l = Rounds.create () in
        Rounds.charge l ~category:"a" 5;
        Rounds.charge_messages l ~category:"a" 9;
        Rounds.reset l;
        check_int "rounds" 0 (Rounds.total l);
        check_int "messages" 0 (Rounds.total_messages l));
  ]

let determinism_tests =
  [
    case "all solvers are deterministic given seeds" (fun () ->
        let g = List.assoc "rand30" (two_ec_pool ()) in
        let a = Ecss2.solve ~seed:77 g and b = Ecss2.solve ~seed:77 g in
        check_is "ecss2" (Bitset.equal a.Ecss2.solution b.Ecss2.solution);
        check_int "rounds equal" a.Ecss2.rounds b.Ecss2.rounds;
        let ka = Kecss.solve ~seed:77 g ~k:2 and kb = Kecss.solve ~seed:77 g ~k:2 in
        check_is "kecss" (Bitset.equal ka.Kecss.solution kb.Kecss.solution));
    case "different seeds may differ but both verify" (fun () ->
        let g = List.assoc "rand50" (two_ec_pool ()) in
        List.iter
          (fun seed ->
            let r = Ecss2.solve ~seed g in
            check_is
              (Printf.sprintf "seed %d ok" seed)
              (Verify.check_kecss g r.Ecss2.solution ~k:2).Verify.ok)
          [ 1; 2; 3; 4; 5 ]);
  ]

let () =
  Alcotest.run "edge_cases"
    [
      ("multigraph", multigraph_tests);
      ("tiny", tiny_tests);
      ("composition", composition_tests);
      ("accounting", accounting_tests);
      ("determinism", determinism_tests);
    ]
