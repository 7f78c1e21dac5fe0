open Kecss_graph
open Kecss_connectivity
open Kecss_congest
open Kecss_cycle_space
open Common

let build ?(bits = Labels.default_bits) ?(seed = 17) g =
  let tree = Rooted_tree.bfs_tree g ~root:0 in
  Labels.compute ~bits (Rng.create ~seed) tree ~h_mask:(Graph.all_edges_mask g)

let labels_tests =
  [
    case "bridges are exactly the zero labels" (fun () ->
        List.iter
          (fun (name, g) ->
            let l = build g in
            let zero_tree_edges =
              Graph.fold_edges
                (fun e acc ->
                  if
                    Rooted_tree.is_tree_edge (Labels.tree l) e.Graph.id
                    && Labels.label l e.Graph.id = 0
                  then e.Graph.id :: acc
                  else acc)
                g []
              |> List.sort compare
            in
            Alcotest.(check (list int))
              (name ^ " bridges")
              (Dfs.bridges g) zero_tree_edges)
          (connected_pool ()));
    case "is_two_edge_connected agrees with DFS" (fun () ->
        List.iter
          (fun (name, g) ->
            check_is name
              (Labels.is_two_edge_connected (build g)
              = Dfs.is_two_edge_connected g))
          (connected_pool ()));
    case "cut pairs on the figure-2 graph" (fun () ->
        let g = Gen.paper_figure2 () in
        let l = build g in
        Alcotest.(check (list (pair int int)))
          "matches exact oracle"
          (Cut_pairs_exact.all g ~h_mask:(Graph.all_edges_mask g))
          (Labels.cut_pairs l));
    case "3EC families have distinct labels" (fun () ->
        List.iter
          (fun (name, g) ->
            if Edge_connectivity.is_k_edge_connected g 3 then
              check_is name (Labels.is_three_edge_connected (build g)))
          (three_ec_pool ()));
    case "cycle: all edges share one label" (fun () ->
        let g = Gen.cycle 7 in
        let l = build g in
        check_int "one class" 1 (List.length (Labels.groups l));
        check_int "C(7,2) cut pairs" 21 (List.length (Labels.cut_pairs l)));
    case "distributed computation yields the same classes" (fun () ->
        List.iter
          (fun (name, g) ->
            if Dfs.is_two_edge_connected g then begin
              let tree = Rooted_tree.bfs_tree g ~root:0 in
              let mask = Graph.all_edges_mask g in
              let seq = Labels.compute (Rng.create ~seed:3) tree ~h_mask:mask in
              let ledger = Rounds.create () in
              let forest = Forest.of_rooted_tree tree in
              let dist =
                Labels.compute_distributed ledger (Rng.create ~seed:4) ~forest
                  tree ~h_mask:mask
              in
              Alcotest.(check (list (pair int int)))
                (name ^ " same cut pairs")
                (Labels.cut_pairs seq) (Labels.cut_pairs dist);
              check_is (name ^ " O(height) rounds")
                (Rounds.total ledger <= (2 * Rooted_tree.height tree) + 3)
            end)
          (connected_pool ()));
    case "distributed labels refuse another tree's forest" (fun () ->
        (* the forest must be the tree's own: a copy of its parent edges
           makes an equal forest that shares nothing with it *)
        let g = Gen.cycle 6 in
        let tree = Rooted_tree.bfs_tree g ~root:0 in
        let copy =
          Forest.make g ~parent_edge:(Array.copy (Rooted_tree.parent_edges tree))
        in
        match
          Labels.compute_distributed (Rounds.create ()) (Rng.create ~seed:4)
            ~forest:copy tree ~h_mask:(Graph.all_edges_mask g)
        with
        | exception Invalid_argument msg ->
          Alcotest.(check string)
            "named error" "Labels.compute_distributed: forest is not the tree's"
            msg
        | _ -> Alcotest.fail "expected Invalid_argument");
    case "n_phi counters" (fun () ->
        let g = Gen.cycle 5 in
        let l = build g in
        let some_label = Labels.label l 0 in
        check_int "all five edges" 5 (Labels.edge_count_with_label l some_label);
        check_int "four tree edges" 4
          (Labels.tree_edge_count_with_label l some_label));
    case "pairs_covered rejects H edges" (fun () ->
        let g = Gen.cycle 5 in
        let l = build g in
        (match Labels.pairs_covered l 0 with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument"));
    case "small label width yields false positives, never negatives" (fun () ->
        (* with b = 1, label collisions abound; every true cut pair must
           still be reported (one-sided error, Cor. 5.3) *)
        let g = Gen.random_k_connected (Rng.create ~seed:9) 14 2 ~extra:6 in
        let truth = Cut_pairs_exact.all g ~h_mask:(Graph.all_edges_mask g) in
        for seed = 0 to 20 do
          let l = build ~bits:1 ~seed g in
          let reported = Labels.cut_pairs l in
          List.iter
            (fun pair -> check_is "pair reported" (List.mem pair reported))
            truth
        done);
  ]

let oracle_tests =
  [
    qcheck
      (QCheck.Test.make ~name:"labels find exactly the true cut pairs"
         ~count:40 (arb_connected ~max_n:14 ()) (fun params ->
           let g = graph_of_params params in
           if not (Dfs.is_two_edge_connected g) then true
           else
             let truth = Cut_pairs_exact.all g ~h_mask:(Graph.all_edges_mask g) in
             Labels.cut_pairs (build g) = truth));
    qcheck
      (QCheck.Test.make ~name:"pairs_covered equals the exact count (Claim 5.8)"
         ~count:40
         QCheck.(triple (int_bound 100_000) (int_range 8 16) (int_bound 3))
         (fun (seed, n, shape) ->
           let rng = Rng.create ~seed in
           (* a shallow BFS tree; the BFS tree of the ring 0..n−1 inside a
              circulant (depth n/2); the MST that §5.4 labels; or the path
              0–1–…–(n−1) inside that circulant (depth n − 1), on 24 to 48
              vertices so that paths keep many classes to sort *)
           let n = if shape = 3 then 3 * n else n in
           let along_ring g parent =
             let up v =
               let p = parent v in
               if p < 0 then -1 else Option.get (Graph.find_edge g v p)
             in
             Rooted_tree.of_parent_edges g ~root:0 (Array.init n up)
           in
           let g, tree =
             match shape with
             | 0 ->
               let g = Gen.random_k_connected rng n 2 ~extra:n in
               (g, Rooted_tree.bfs_tree g ~root:0)
             | 1 ->
               let g = Gen.circulant n [ 1; 3 ] in
               let ring = Rooted_tree.bfs_tree (Gen.cycle n) ~root:0 in
               (g, along_ring g (Rooted_tree.parent ring))
             | 2 ->
               let g =
                 Weights.uniform rng ~lo:1 ~hi:100
                   (Gen.random_k_connected rng n 2 ~extra:n)
               in
               (g, (Mst.run (Rounds.create ()) rng g).Mst.tree)
             | _ ->
               let g = Gen.circulant n [ 1; 3 ] in
               (g, along_ring g (fun v -> v - 1))
           in
           (* H: drop every non-tree edge whose removal keeps H
              2-edge-connected; the dropped edges are the outside edges *)
           let h_mask = Graph.all_edges_mask g in
           Graph.iter_edges
             (fun e ->
               let id = e.Graph.id in
               if not (Rooted_tree.is_tree_edge tree id) then begin
                 Bitset.remove h_mask id;
                 if not (Dfs.is_two_edge_connected ~mask:h_mask g) then
                   Bitset.add h_mask id
               end)
             g;
           (* more outside edges, appended so that every id above keeps
              its meaning: from each vertex below the root to a random
              proper ancestor, and to another vertex at its depth *)
           let depth = Rooted_tree.depth tree in
           let extra =
             List.concat_map
               (fun v ->
                 if depth v = 0 then []
                 else
                   let anc = Rooted_tree.ancestor_at_depth tree v (Rng.int rng (depth v)) in
                   let peers =
                     List.filter (fun w -> w <> v && depth w = depth v) (List.init n Fun.id)
                   in
                   (v, anc, 1)
                   ::
                   (match peers with
                   | [] -> []
                   | _ -> [ (v, List.nth peers (Rng.int rng (List.length peers)), 1) ]))
               (List.init n Fun.id)
           in
           let g =
             Graph.make ~n
               (List.init (Graph.m g) (fun id ->
                    let u, v = Graph.endpoints g id in
                    (u, v, Graph.weight g id))
               @ extra)
           in
           let tree =
             Rooted_tree.of_parent_edges g ~root:0
               (Array.init n (Rooted_tree.parent_edge tree))
           in
           let h_mask =
             Bitset.of_list (Graph.m g) (Bitset.elements h_mask)
           in
           let outside =
             List.filter
               (fun id -> not (Bitset.mem h_mask id))
               (List.init (Graph.m g) Fun.id)
           in
           let tree_edges = Bitset.elements (Rooted_tree.edges_mask tree) in
           let truth = Cut_pairs_exact.all g ~h_mask in
           let exact e =
             List.length
               (List.filter
                  (fun pair -> Cut_pairs_exact.covers g ~h_mask ~pair e)
                  truth)
           in
           (* at 60 bits the labels are exact w.h.p.; at 1 and 2 bits
              unrelated edges share labels, and Claim 5.8's sum is checked
              against n_φ recounted from the groups — the class sizes also
              on the labels of the whole graph, which may be 3EC *)
           List.for_all
             (fun bits ->
               let label h_mask =
                 Labels.compute ~bits (Rng.create ~seed:5) tree ~h_mask
               in
               let n_phi l phi =
                 match List.assoc_opt phi (Labels.groups l) with
                 | Some ids -> List.length ids
                 | None -> 0
               in
               let classes_agree l =
                 List.for_all
                   (fun (phi, ids) ->
                     Labels.edge_count_with_label l phi = List.length ids)
                   (Labels.groups l)
                 && Labels.edge_count_with_label l (1 lsl bits) = 0
                 && Labels.is_three_edge_connected l
                    = List.for_all
                        (fun t -> n_phi l (Labels.label l t) = 1)
                        tree_edges
               in
               let l = label h_mask in
               let recount e =
                 let on_path =
                   List.map (Labels.label l) (Rooted_tree.fundamental_path tree e)
                 in
                 List.fold_left
                   (fun acc phi ->
                     let c = List.length (List.filter (( = ) phi) on_path) in
                     acc + (c * (n_phi l phi - c)))
                   0
                   (List.sort_uniq compare on_path)
               in
               classes_agree l
               && classes_agree (label (Graph.all_edges_mask g))
               && List.for_all
                    (fun e ->
                      let covered = Labels.pairs_covered l e in
                      covered = recount e && (bits < 60 || covered = exact e))
                    outside)
             [ 60; 2; 1 ]));
    qcheck
      (QCheck.Test.make
         ~name:"is_three_edge_connected agrees with exact connectivity"
         ~count:40 (arb_connected ~max_n:12 ()) (fun params ->
           let g = graph_of_params params in
           if not (Dfs.is_two_edge_connected g) then true
           else
             Labels.is_three_edge_connected (build g)
             = Edge_connectivity.is_k_edge_connected g 3));
  ]

let exact_tests =
  [
    case "exact oracle on a theta graph" (fun () ->
        (* cycle 0-1-2-3-4-5 with chord 0-3: cut pairs are within arcs *)
        let g =
          Graph.make ~n:6
            [ (0, 1, 1); (1, 2, 1); (2, 3, 1); (3, 4, 1); (4, 5, 1); (5, 0, 1); (0, 3, 1) ]
        in
        let pairs = Cut_pairs_exact.all g ~h_mask:(Graph.all_edges_mask g) in
        (* arcs {0,1,2} and {3,4,5} each give C(3,2) = 3 pairs *)
        check_int "pair count" 6 (List.length pairs));
    case "covers oracle" (fun () ->
        let g =
          Graph.make ~n:4 [ (0, 1, 1); (1, 2, 1); (2, 3, 1); (3, 0, 1); (0, 2, 1) ]
        in
        let h_mask = Bitset.of_list 5 [ 0; 1; 2; 3 ] in
        (* the 4-cycle: {e1,e2} = {1-2, 2-3} isolates vertex 2, and the
           chord 0-2 reconnects it; {e0,e1} isolates vertex 1, which the
           chord does not touch *)
        check_is "chord covers {e1,e2}"
          (Cut_pairs_exact.covers g ~h_mask ~pair:(1, 2) 4);
        check_is "chord does not cover {e0,e1}"
          (not (Cut_pairs_exact.covers g ~h_mask ~pair:(0, 1) 4)));
  ]

let verifier_tests =
  [
    case "2EC verdicts agree with DFS on the pool" (fun () ->
        List.iter
          (fun (name, g) ->
            let ledger = Rounds.create () in
            let v =
              Verifier.two_edge_connected ledger (Rng.create ~seed:4) g
            in
            check_is name (v = Dfs.is_two_edge_connected g))
          (connected_pool ()));
    case "3EC verdicts agree with exact connectivity" (fun () ->
        List.iter
          (fun (name, g) ->
            let ledger = Rounds.create () in
            let v =
              Verifier.three_edge_connected ledger (Rng.create ~seed:4) g
            in
            check_is name
              (v = Edge_connectivity.is_k_edge_connected g 3))
          (three_ec_pool () @ connected_pool ()));
    case "verification is O(D) rounds" (fun () ->
        let g = Gen.circulant 120 [ 1; 2 ] in
        let d = Graph.diameter g in
        let ledger = Rounds.create () in
        ignore (Verifier.three_edge_connected ledger (Rng.create ~seed:4) g);
        check_is "linear in D" (Rounds.total ledger <= 8 * (d + 2)));
    case "false verdicts are exact (one-sided)" (fun () ->
        (* even at 1-bit labels, a non-2EC graph must be rejected *)
        let g = Gen.lollipop 5 3 in
        for seed = 1 to 20 do
          let ledger = Rounds.create () in
          check_is "rejected"
            (not (Verifier.two_edge_connected ~bits:1 ledger (Rng.create ~seed) g))
        done);
    case "true verdicts are exact, false ones can be false alarms" (fun () ->
        (* a 2-edge-connected graph whose tree edges draw 1- and 2-bit
           labels: some seed labels a tree edge 0 and says false *)
        let g = Gen.circulant 12 [ 1; 2 ] in
        List.iter
          (fun bits ->
            let verdicts =
              List.init 40 (fun seed ->
                  Verifier.two_edge_connected ~bits (Rounds.create ())
                    (Rng.create ~seed) g)
            in
            check_is (Printf.sprintf "a false alarm at %d bits" bits)
              (List.mem false verdicts))
          [ 1; 2 ];
        (* a bridge is labelled 0 under every draw: never true *)
        let g = Gen.lollipop 6 4 in
        List.iter
          (fun bits ->
            for seed = 0 to 39 do
              check_is "bridge rejected"
                (not
                   (Verifier.two_edge_connected ~bits (Rounds.create ())
                      (Rng.create ~seed) g))
            done)
          [ 1; 2 ]);
    case "subgraph verification via mask" (fun () ->
        let g = Gen.wheel 10 in
        let tree = Rooted_tree.bfs_tree g ~root:0 in
        let ledger = Rounds.create () in
        check_is "tree alone is not 2EC"
          (not
             (Verifier.two_edge_connected
                ~mask:(Rooted_tree.edges_mask tree)
                ledger (Rng.create ~seed:4) g));
        check_is "whole wheel is 3EC"
          (Verifier.three_edge_connected ledger (Rng.create ~seed:4) g));
  ]

let () =
  Alcotest.run "cycle_space"
    [
      ("labels", labels_tests);
      ("oracle", oracle_tests);
      ("exact", exact_tests);
      ("verifier", verifier_tests);
    ]
