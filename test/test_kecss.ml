open Kecss_graph
open Kecss_connectivity
open Kecss_congest
open Kecss_core
open Common

let k_pool k =
  let rng = Rng.create ~seed:(k * 1009) in
  let w g = Weights.uniform rng ~lo:1 ~hi:50 g in
  match k with
  | 3 ->
    [
      ("wheel10", w (Gen.wheel 10));
      ("circ18", w (Gen.circulant 18 [ 1; 2 ]));
      ("harary3_12", w (Gen.harary 3 12));
      ("complete8", w (Gen.complete 8));
      ("rand24", w (Gen.random_k_connected rng 24 3 ~extra:30));
    ]
  | 4 ->
    [
      ("hyper4", w (Gen.hypercube 4));
      ("torus4x4", w (Gen.torus 4 4));
      ("circ16", w (Gen.circulant 16 [ 1; 2 ]));
      ("rand20", w (Gen.random_k_connected rng 20 4 ~extra:20));
    ]
  | _ -> invalid_arg "k_pool"

let run_augk ?(seed = 11) g ~h ~k =
  let ledger = Rounds.create () in
  let rng = Rng.create ~seed in
  let bfs = Prim.bfs_tree ledger g ~root:0 in
  let bfs_forest = Forest.of_rooted_tree bfs in
  (Augk.augment ledger rng ~bfs_forest g ~h ~k, ledger)

let augk_tests =
  [
    case "augments a spanning tree to 2EC" (fun () ->
        List.iter
          (fun (name, g) ->
            let mst = Kecss_baselines.Greedy.kecss g ~k:1 in
            let r, _ = run_augk g ~h:mst ~k:2 in
            let rep =
              Verify.check_augmentation g ~h:mst ~aug:r.Augk.augmentation ~k:2
            in
            check_is (name ^ " 2EC") rep.Verify.ok)
          (two_ec_pool ()));
    case "trivial when H is already k-connected" (fun () ->
        let g = Weights.unit (Gen.complete 6) in
        let all = Graph.all_edges_mask g in
        let r, _ = run_augk g ~h:all ~k:3 in
        check_int "no edges" 0 (Bitset.cardinal r.Augk.augmentation);
        check_int "no iterations" 0 r.Augk.iterations);
    case "rejects an H that is not (k-1)-connected" (fun () ->
        let g = Weights.unit (Gen.complete 6) in
        let tree = Rooted_tree.edges_mask (Rooted_tree.bfs_tree g ~root:0) in
        (* the tree less one edge: H spans nothing connected *)
        let split = Bitset.copy tree in
        Bitset.remove split (List.hd (Bitset.elements tree));
        (* k = 3 and 4 read λ from the census, k = 5 from max-flow *)
        List.iter
          (fun (h, k) ->
            match run_augk g ~h ~k with
            | exception Invalid_argument msg ->
              Alcotest.(check string)
                (Printf.sprintf "k=%d" k)
                "Augk.augment: H is not (k-1)-edge-connected" msg
            | _ -> Alcotest.fail "expected Invalid_argument")
          [ (tree, 3); (tree, 4); (split, 3); (split, 4); (tree, 5); (split, 2) ]);
    case "active_weight counts each edge once (A' is a set)" (fun () ->
        (* an edge can be activated in many iterations; the §4.2 charging
           set A' is a set, so the total must be bounded by the weight of
           all distinct non-tree edges *)
        List.iter
          (fun (name, g) ->
            let mst = Kecss_baselines.Greedy.kecss g ~k:1 in
            let r, _ = run_augk g ~h:mst ~k:2 in
            let non_tree = ref 0 in
            Graph.iter_edges
              (fun e ->
                if not (Bitset.mem mst e.Graph.id) then
                  non_tree := !non_tree + e.Graph.w)
              g;
            check_is (name ^ " distinct bound") (r.Augk.active_weight <= !non_tree);
            check_is (name ^ " covers A")
              (r.Augk.active_weight >= Graph.mask_weight g r.Augk.augmentation))
          (k_pool 3));
    case "augmentation per level is a forest (Claim 4.1)" (fun () ->
        List.iter
          (fun (name, g) ->
            let sol = Kecss.solve ~seed:21 g ~k:3 in
            ignore sol;
            (* re-run the level-2 augmentation in isolation to inspect A *)
            let mst = Kecss_baselines.Greedy.kecss g ~k:1 in
            let r, _ = run_augk g ~h:mst ~k:2 in
            let a = r.Augk.augmentation in
            let uf = Union_find.create (Graph.n g) in
            Bitset.iter
              (fun e ->
                let u, v = Graph.endpoints g e in
                check_is (name ^ " acyclic") (Union_find.union uf u v))
              a)
          (k_pool 3));
  ]

let driver_tests =
  [
    case "k=3 verified across the pool" (fun () ->
        List.iter
          (fun (name, g) ->
            let r = Kecss.solve ~seed:5 g ~k:3 in
            let rep = Verify.check_kecss g r.Kecss.solution ~k:3 in
            check_is (name ^ " 3EC") rep.Verify.ok;
            check_int (name ^ " weight") rep.Verify.weight r.Kecss.weight;
            check_int (name ^ " levels") 3 (List.length r.Kecss.levels))
          (k_pool 3));
    case "k=4 verified across the pool" (fun () ->
        List.iter
          (fun (name, g) ->
            let r = Kecss.solve ~seed:5 g ~k:4 in
            let rep = Verify.check_kecss g r.Kecss.solution ~k:4 in
            check_is (name ^ " 4EC") rep.Verify.ok)
          (k_pool 4));
    case "k=1 degenerates to the MST" (fun () ->
        let g = List.assoc "rand30" (two_ec_pool ()) in
        let r = Kecss.solve ~seed:5 g ~k:1 in
        check_int "n-1 edges" (Graph.n g - 1) (Bitset.cardinal r.Kecss.solution);
        check_int "MST weight"
          (Graph.mask_weight g (Kecss_baselines.Greedy.kecss g ~k:1))
          r.Kecss.weight);
    case "weight above the degree lower bound" (fun () ->
        List.iter
          (fun (name, g) ->
            let r = Kecss.solve ~seed:5 g ~k:3 in
            check_is (name ^ " >= LB")
              (r.Kecss.weight >= Kecss_baselines.Lower_bound.degree g ~k:3))
          (k_pool 3));
    case "approximation vs exact optimum on tiny instances" (fun () ->
        let rng = Rng.create ~seed:61 in
        for _ = 1 to 4 do
          let g =
            Weights.uniform rng ~lo:1 ~hi:9 (Gen.random_k_connected rng 7 3 ~extra:3)
          in
          let r = Kecss.solve ~seed:6 g ~k:3 in
          match Kecss_baselines.Exact.kecss g ~k:3 with
          | None -> Alcotest.fail "instance should be 3EC"
          | Some opt ->
            let ratio =
              float_of_int r.Kecss.weight /. float_of_int (Graph.mask_weight g opt)
            in
            check_is "within k(2 + 6 ln n)" (ratio <= 3.0 *. (2.0 +. (6.0 *. log 7.0)))
        done);
    case "repairs are rare" (fun () ->
        List.iter
          (fun (_, g) ->
            let r = Kecss.solve ~seed:5 g ~k:3 in
            List.iter
              (fun li -> check_is "no repair" (li.Kecss.repaired <= 1))
              r.Kecss.levels)
          (k_pool 3));
    qcheck
      (QCheck.Test.make ~name:"random 3EC instances solve and verify" ~count:8
         QCheck.(pair (int_bound 100_000) (int_range 10 20))
         (fun (seed, n) ->
           let rng = Rng.create ~seed in
           let g =
             Weights.uniform rng ~lo:1 ~hi:30
               (Gen.random_k_connected rng n 3 ~extra:(n / 2))
           in
           let r = Kecss.solve ~seed g ~k:3 in
           (Verify.check_kecss g r.Kecss.solution ~k:3).Verify.ok));
  ]

(* ---------- fault-tolerant MST (§1.2) ---------- *)

let kruskal_weight ?mask g =
  let edges =
    Graph.fold_edges
      (fun e acc ->
        match mask with
        | Some s when not (Bitset.mem s e.Graph.id) -> acc
        | _ -> e :: acc)
      g []
    |> List.sort (fun a b -> compare (a.Graph.w, a.Graph.id) (b.Graph.w, b.Graph.id))
  in
  let uf = Union_find.create (Graph.n g) in
  let w = ref 0 and count = ref 0 in
  List.iter
    (fun e ->
      if Union_find.union uf e.Graph.u e.Graph.v then begin
        w := !w + e.Graph.w;
        incr count
      end)
    edges;
  if !count = Graph.n g - 1 then Some !w else None

let ft_mst_tests =
  [
    case "contains an MST of G minus every edge" (fun () ->
        List.iter
          (fun (name, g) ->
            let r = Ft_mst.build ~seed:9 g in
            check_is (name ^ " size")
              (Bitset.cardinal r.Ft_mst.mask <= 2 * (Graph.n g - 1));
            Graph.iter_edges
              (fun e ->
                (* MST weight of G-e restricted to the FT-MST must equal
                   the true MST weight of G-e *)
                let without = Graph.all_edges_mask g in
                Bitset.remove without e.Graph.id;
                match kruskal_weight ~mask:without g with
                | None -> () (* e is a bridge of G: G-e has no spanning tree *)
                | Some truth ->
                  let inside = Bitset.copy r.Ft_mst.mask in
                  Bitset.remove inside e.Graph.id;
                  (match kruskal_weight ~mask:inside g with
                  | Some w -> check_int (name ^ " replacement weight") truth w
                  | None -> Alcotest.fail (name ^ ": FT-MST not fault tolerant")))
              g)
          (two_ec_pool ()));
    case "swap edges cover their tree edge" (fun () ->
        let g = List.assoc "rand30" (two_ec_pool ()) in
        let r = Ft_mst.build ~seed:9 g in
        for x = 0 to Graph.n g - 1 do
          let t = Rooted_tree.parent_edge r.Ft_mst.tree x in
          if t >= 0 then begin
            let s = r.Ft_mst.swap.(x) in
            check_is "swap exists on 2EC graph" (s >= 0);
            check_is "covers" (Rooted_tree.covers r.Ft_mst.tree s t)
          end
        done);
    case "swap is the cheapest covering edge" (fun () ->
        let g = List.assoc "torus4x5" (two_ec_pool ()) in
        let r = Ft_mst.build ~seed:9 g in
        let tree = r.Ft_mst.tree in
        for x = 0 to Graph.n g - 1 do
          let t = Rooted_tree.parent_edge tree x in
          if t >= 0 then begin
            let best =
              Graph.fold_edges
                (fun e acc ->
                  if
                    (not (Rooted_tree.is_tree_edge tree e.Graph.id))
                    && Rooted_tree.covers tree e.Graph.id t
                  then min acc (e.Graph.w, e.Graph.id)
                  else acc)
                g (max_int, max_int)
            in
            check_int "cheapest" (snd best) r.Ft_mst.swap.(x)
          end
        done);
    case "bridges have no swap" (fun () ->
        let g =
          Weights.uniform (Rng.create ~seed:4) ~lo:1 ~hi:9 (Gen.lollipop 5 3)
        in
        let r = Ft_mst.build ~seed:9 g in
        let bridges = Kecss_connectivity.Dfs.bridges g in
        let missing =
          Array.to_list r.Ft_mst.swap |> List.filter (fun s -> s < 0)
        in
        (* root slot is always -1; the three tail bridges add three more *)
        check_int "unswappable count" (List.length bridges + 1)
          (List.length missing));
  ]

let () =
  Alcotest.run "kecss"
    [
      ("augk", augk_tests);
      ("driver", driver_tests);
      ("ft_mst", ft_mst_tests);
    ]
