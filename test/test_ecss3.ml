open Kecss_graph
open Kecss_connectivity
open Kecss_congest
open Kecss_core
open Common

let ecss2u_tests =
  [
    case "2-approximation structure on the pool" (fun () ->
        List.iter
          (fun (name, g) ->
            if Edge_connectivity.is_k_edge_connected g 2 then begin
              let r = Ecss2_unweighted.solve g in
              check_is (name ^ " 2EC")
                (Dfs.is_two_edge_connected ~mask:r.Ecss2_unweighted.h g);
              check_is
                (name ^ " size <= 2(n-1)")
                (Bitset.cardinal r.Ecss2_unweighted.h <= 2 * (Graph.n g - 1));
              (* tree ⊆ h, augmentation = h \ tree *)
              check_is (name ^ " tree inside")
                (Bitset.subset
                   (Rooted_tree.edges_mask r.Ecss2_unweighted.tree)
                   r.Ecss2_unweighted.h)
            end)
          (connected_pool ()));
    case "O(D) rounds" (fun () ->
        let g = Gen.circulant 100 [ 1; 2 ] in
        let ledger = Rounds.create () in
        ignore (Ecss2_unweighted.solve_with ledger g);
        let d = Graph.diameter g in
        check_is "rounds linear in D" (Rounds.total ledger <= 8 * (d + 2)));
    case "fails on a bridge" (fun () ->
        (match Ecss2_unweighted.solve (Gen.lollipop 4 2) with
        | exception Failure _ -> ()
        | _ -> Alcotest.fail "expected Failure"));
    qcheck
      (QCheck.Test.make ~name:"2-approx always valid on random 2EC graphs"
         ~count:30
         QCheck.(pair (int_bound 100_000) (int_range 5 40))
         (fun (seed, n) ->
           let rng = Rng.create ~seed in
           let g = Gen.random_k_connected rng n 2 ~extra:(n / 2) in
           let r = Ecss2_unweighted.solve g in
           Dfs.is_two_edge_connected ~mask:r.Ecss2_unweighted.h g
           && Bitset.cardinal r.Ecss2_unweighted.h <= 2 * (n - 1)));
  ]

let ecss3_tests =
  [
    case "3EC verified across the pool" (fun () ->
        List.iter
          (fun (name, g) ->
            let r = Ecss3.solve ~seed:13 g in
            let rep = Verify.check_kecss g r.Ecss3.solution ~k:3 in
            check_is (name ^ " 3EC") rep.Verify.ok;
            check_int (name ^ " edge count") r.Ecss3.edge_count
              rep.Verify.edge_count;
            check_is (name ^ " H inside solution")
              (Bitset.subset r.Ecss3.h r.Ecss3.solution))
          (three_ec_pool ()));
    case "solution size vs the 3n/2 lower bound" (fun () ->
        List.iter
          (fun (name, g) ->
            let r = Ecss3.solve ~seed:13 g in
            let lb = Kecss_baselines.Lower_bound.unweighted_edges ~n:(Graph.n g) ~k:3 in
            check_is (name ^ " >= LB") (r.Ecss3.edge_count >= lb);
            let n = float_of_int (Graph.n g) in
            check_is
              (name ^ " O(log n) sized")
              (float_of_int r.Ecss3.edge_count
              <= float_of_int lb *. (2.0 +. (3.0 *. log n))))
          (three_ec_pool ()));
    case "repairs are rare" (fun () ->
        List.iter
          (fun (name, g) ->
            let r = Ecss3.solve ~seed:13 g in
            check_is (name ^ " no repair") (r.Ecss3.repaired <= 1))
          (three_ec_pool ()));
    case "small label width still yields a correct (if larger) solution"
      (fun () ->
        let g = Gen.circulant 16 [ 1; 2 ] in
        let r = Ecss3.solve ~bits:2 ~seed:3 g in
        check_is "3EC despite collisions"
          (Verify.check_kecss g r.Ecss3.solution ~k:3).Verify.ok);
    case "deterministic given the seed" (fun () ->
        let g = Gen.hypercube 4 in
        let a = Ecss3.solve ~seed:99 g and b = Ecss3.solve ~seed:99 g in
        check_is "same solution" (Bitset.equal a.Ecss3.solution b.Ecss3.solution));
    case "vs exact optimum on a tiny instance" (fun () ->
        let g = Gen.wheel 8 in
        let r = Ecss3.solve ~seed:4 g in
        match Kecss_baselines.Exact.kecss g ~k:3 with
        | None -> Alcotest.fail "wheel8 is 3EC"
        | Some opt ->
          check_is "close to optimal"
            (r.Ecss3.edge_count <= 3 * Bitset.cardinal opt));
    qcheck
      (QCheck.Test.make ~name:"random 3EC instances solve and verify" ~count:8
         QCheck.(pair (int_bound 100_000) (int_range 10 24))
         (fun (seed, n) ->
           let rng = Rng.create ~seed in
           let g = Gen.random_k_connected rng n 3 ~extra:n in
           let r = Ecss3.solve ~seed g in
           (Verify.check_kecss g r.Ecss3.solution ~k:3).Verify.ok));
  ]

let weighted_tests =
  [
    case "weighted variant (§5.4) is 3EC across the pool" (fun () ->
        let rng = Rng.create ~seed:88 in
        List.iter
          (fun (name, g) ->
            let g = Weights.uniform rng ~lo:1 ~hi:50 g in
            let r = Ecss3.solve_weighted ~seed:21 g in
            let rep = Verify.check_kecss g r.Ecss3.solution ~k:3 in
            check_is (name ^ " 3EC") rep.Verify.ok)
          (three_ec_pool ()));
    case "weighted variant respects weights" (fun () ->
        (* two parallel ways to add the third connectivity level: cheap
           chords vs expensive chords; the algorithm must prefer cheap *)
        let rng = Rng.create ~seed:3 in
        let g = Weights.uniform rng ~lo:1 ~hi:100 (Gen.circulant 16 [ 1; 2 ]) in
        let r = Ecss3.solve_weighted ~seed:4 g in
        let lb = Kecss_baselines.Lower_bound.degree g ~k:3 in
        check_is "within log-factor of degree LB"
          (float_of_int (Graph.mask_weight g r.Ecss3.solution)
          <= float_of_int lb *. (2.0 +. (8.0 *. log 16.0))));
    case "weighted beats unweighted-as-weighted on skewed weights" (fun () ->
        (* C16(1,3) is 4-edge-connected with cheap edges only, so the
           prohibitive offset-2 chords (w=1000) are entirely avoidable;
           the weight-blind algorithm happily buys them *)
        let g0 = Gen.circulant 16 [ 1; 2; 3 ] in
        let g =
          Graph.map_weights
            (fun e ->
              if e.Graph.id < 16 then 1
              else if e.Graph.id < 32 then 1000
              else 2)
            g0
        in
        let w_weighted =
          Graph.mask_weight g (Ecss3.solve_weighted ~seed:5 g).Ecss3.solution
        in
        let w_blind =
          Graph.mask_weight g (Ecss3.solve ~seed:5 g).Ecss3.solution
        in
        check_is "both 3EC"
          ((Verify.check_kecss g (Ecss3.solve_weighted ~seed:5 g).Ecss3.solution ~k:3).Verify.ok);
        check_is "order of magnitude cheaper" (10 * w_weighted < w_blind));
  ]

let () =
  Alcotest.run "ecss3"
    [
      ("ecss2_unweighted", ecss2u_tests);
      ("ecss3", ecss3_tests);
      ("ecss3_weighted", weighted_tests);
    ]
