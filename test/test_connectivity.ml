open Kecss_graph
open Kecss_connectivity
open Common

(* brute-force bridge finder: remove each edge, test component count *)
let brute_bridges ?mask g =
  let base = match mask with None -> Graph.all_edges_mask g | Some s -> Bitset.copy s in
  let base_components = Graph.num_components ~mask:base g in
  Bitset.fold
    (fun e acc ->
      Bitset.remove base e;
      let broken = Graph.num_components ~mask:base g > base_components in
      Bitset.add base e;
      if broken then e :: acc else acc)
    base []
  |> List.rev

let dfs_tests =
  [
    case "path is all bridges" (fun () ->
        let g = Gen.path 7 in
        check_int "bridges" 6 (List.length (Dfs.bridges g)));
    case "cycle has no bridges" (fun () ->
        check_int "bridges" 0 (List.length (Dfs.bridges (Gen.cycle 7)));
        check_is "2ec" (Dfs.is_two_edge_connected (Gen.cycle 7)));
    case "parallel edges are not bridges" (fun () ->
        let g = Graph.make ~n:3 [ (0, 1, 1); (0, 1, 1); (1, 2, 1) ] in
        Alcotest.(check (list int)) "only 1-2" [ 2 ] (Dfs.bridges g));
    case "lollipop tail bridges" (fun () ->
        let g = Gen.lollipop 5 3 in
        check_int "three tail bridges" 3 (List.length (Dfs.bridges g)));
    case "two_edge_components of a barbell" (fun () ->
        (* two triangles joined by one bridge *)
        let g =
          Graph.make ~n:6
            [ (0, 1, 1); (1, 2, 1); (2, 0, 1); (3, 4, 1); (4, 5, 1); (5, 3, 1); (2, 3, 1) ]
        in
        let comp = Dfs.two_edge_components g in
        check_is "triangle 1 together" (comp.(0) = comp.(1) && comp.(1) = comp.(2));
        check_is "triangle 2 together" (comp.(3) = comp.(4) && comp.(4) = comp.(5));
        check_is "separated" (comp.(0) <> comp.(3)));
    qcheck
      (QCheck.Test.make ~name:"bridges agree with brute force" ~count:80
         (arb_connected ~max_n:18 ()) (fun params ->
           let g = graph_of_params params in
           Dfs.bridges g = brute_bridges g));
    qcheck
      (QCheck.Test.make ~name:"masked bridges agree with brute force" ~count:50
         (arb_connected ~max_n:14 ()) (fun params ->
           let g = graph_of_params params in
           let mask = Graph.all_edges_mask g in
           Graph.iter_edges
             (fun e ->
               if e.Graph.id mod 3 = 0 && e.Graph.id > 0 then
                 Bitset.remove mask e.Graph.id)
             g;
           Dfs.bridges ~mask g = brute_bridges ~mask g));
  ]

let maxflow_tests =
  [
    case "unit flow on cycle" (fun () ->
        let net = Maxflow.of_graph (Gen.cycle 8) in
        check_int "two disjoint paths" 2 (Maxflow.max_flow net ~s:0 ~t:4));
    case "flow respects limit" (fun () ->
        let net = Maxflow.of_graph (Gen.complete 6) in
        check_int "limited" 3 (Maxflow.max_flow ~limit:3 net ~s:0 ~t:5);
        check_int "full" 5 (Maxflow.max_flow net ~s:0 ~t:5));
    case "weighted capacities" (fun () ->
        let g = Graph.make ~n:3 [ (0, 1, 4); (1, 2, 2); (0, 2, 1) ] in
        let net = Maxflow.of_graph ~cap:(fun e -> e.Graph.w) g in
        check_int "bottleneck" 3 (Maxflow.max_flow net ~s:0 ~t:2));
    case "min cut side after flow" (fun () ->
        let g = Gen.lollipop 4 3 in
        let net = Maxflow.of_graph g in
        let f = Maxflow.max_flow net ~s:0 ~t:6 in
        check_int "tail bottleneck" 1 f;
        let side = Maxflow.min_cut_side net in
        check_int "one crossing edge" 1 (List.length (Maxflow.cut_edges g side)));
    case "network reusable across pairs" (fun () ->
        let net = Maxflow.of_graph (Gen.hypercube 3) in
        for t = 1 to 7 do
          check_int "3-regular flow" 3 (Maxflow.max_flow net ~s:0 ~t)
        done);
  ]

let ec_tests =
  [
    case "known connectivities" (fun () ->
        check_int "cycle" 2 (Edge_connectivity.lambda (Gen.cycle 9));
        check_int "path" 1 (Edge_connectivity.lambda (Gen.path 5));
        check_int "K6" 5 (Edge_connectivity.lambda (Gen.complete 6));
        check_int "hypercube4" 4 (Edge_connectivity.lambda (Gen.hypercube 4));
        check_int "torus" 4 (Edge_connectivity.lambda (Gen.torus 4 4));
        check_int "wheel" 3 (Edge_connectivity.lambda (Gen.wheel 10)));
    case "harary is exactly k-connected" (fun () ->
        List.iter
          (fun (k, n) ->
            check_int
              (Printf.sprintf "H_%d,%d" k n)
              k
              (Edge_connectivity.lambda (Gen.harary k n)))
          [ (2, 8); (3, 9); (3, 12); (4, 10); (5, 11) ]);
    case "upper bound short-circuits" (fun () ->
        check_int "capped" 2 (Edge_connectivity.lambda ~upper:2 (Gen.complete 8)));
    case "is_k_edge_connected edge cases" (fun () ->
        check_is "k=0" (Edge_connectivity.is_k_edge_connected (Gen.path 3) 0);
        check_is "k=1 path" (Edge_connectivity.is_k_edge_connected (Gen.path 3) 1);
        check_is "k=2 path fails"
          (not (Edge_connectivity.is_k_edge_connected (Gen.path 3) 2)));
    case "global_min_cut returns a real cut" (fun () ->
        let g = Gen.lollipop 5 4 in
        let lam, side, cut = Edge_connectivity.global_min_cut g in
        check_int "lambda 1" 1 lam;
        check_int "cut size" 1 (List.length cut);
        check_is "side nontrivial"
          (Bitset.cardinal side > 0 && Bitset.cardinal side < Graph.n g);
        let mask = Graph.all_edges_mask g in
        List.iter (Bitset.remove mask) cut;
        check_is "disconnects" (not (Graph.is_connected ~mask g)));
    qcheck
      (QCheck.Test.make ~name:"lambda agrees with Stoer-Wagner on unit weights"
         ~count:50 (arb_connected ~max_n:16 ()) (fun params ->
           let g = graph_of_params params in
           let sw, _ = Stoer_wagner.min_cut g in
           Edge_connectivity.lambda g = sw));
    qcheck
      (QCheck.Test.make ~name:"pair connectivity is symmetric" ~count:30
         (arb_connected ~max_n:12 ()) (fun params ->
           let g = graph_of_params params in
           let ok = ref true in
           for u = 0 to Graph.n g - 1 do
             for v = u + 1 to Graph.n g - 1 do
               if Edge_connectivity.pair g u v <> Edge_connectivity.pair g v u
               then ok := false
             done
           done;
           !ok));
  ]

let sw_tests =
  [
    case "weighted min cut" (fun () ->
        (* two triangles joined by two light edges *)
        let g =
          Graph.make ~n:6
            [
              (0, 1, 10); (1, 2, 10); (2, 0, 10);
              (3, 4, 10); (4, 5, 10); (5, 3, 10);
              (2, 3, 1); (0, 5, 2);
            ]
        in
        let v, side = Stoer_wagner.min_cut ~cap:(fun e -> e.Graph.w) g in
        check_int "value" 3 v;
        check_is "side is a triangle"
          (Bitset.cardinal side = 3 && Bitset.mem side 0));
    case "disconnected subgraph yields zero" (fun () ->
        let g = Gen.path 4 in
        let mask = Graph.all_edges_mask g in
        Bitset.remove mask 1;
        let v, _ = Stoer_wagner.min_cut ~mask g in
        check_int "zero" 0 v);
  ]

let enum_tests =
  [
    case "cycle min cuts are all pairs" (fun () ->
        let g = Gen.cycle 6 in
        let cuts = Min_cut_enum.enumerate_exhaustive g ~size:2 in
        check_int "C(6,2)" 15 (List.length cuts));
    case "bridge cuts of a path" (fun () ->
        let g = Gen.path 5 in
        let cuts = Min_cut_enum.enumerate_exhaustive g ~size:1 in
        check_int "four bridges" 4 (List.length cuts));
    case "exhaustive enumeration guarded to n <= 24" (fun () ->
        (match Min_cut_enum.enumerate_exhaustive (Gen.cycle 25) ~size:2 with
        | exception Invalid_argument msg ->
          check_is "names the culprit"
            (String.length msg > 0
            && String.sub msg 0 12 = "Min_cut_enum")
        | _ -> Alcotest.fail "expected Invalid_argument for n = 25");
        check_int "n = 16 fine" 15
          (List.length (Min_cut_enum.enumerate_exhaustive (Gen.path 16) ~size:1)));
    slow_case "exhaustive boundary n = 24 is accepted" (fun () ->
        (* the full 2^23 subset scan, so `Slow — but the guard boundary
           itself must stay usable *)
        check_int "bridges of path24" 23
          (List.length (Min_cut_enum.enumerate_exhaustive (Gen.path 24) ~size:1)));
    case "covers on a single-edge cut" (fun () ->
        (* a bridge's cut is covered by that bridge and nothing else *)
        let g = Gen.path 3 in
        match Min_cut_enum.enumerate_exhaustive g ~size:1 with
        | [] -> Alcotest.fail "no bridge cuts on a path"
        | cuts ->
          List.iter
            (fun c ->
              match c.Min_cut_enum.edge_ids with
              | [ b ] ->
                check_is "bridge covers its own cut" (Min_cut_enum.covers g c b);
                List.iter
                  (fun e ->
                    if e <> b then
                      check_is "others do not" (not (Min_cut_enum.covers g c e)))
                  (List.init (Graph.m g) Fun.id)
              | _ -> Alcotest.fail "size-1 cut with several edges")
            cuts);
    case "covers on the full bipartition" (fun () ->
        (* K4 split 2-2: all four crossing edges covered, the two
           within-side edges not *)
        let g = Gen.complete 4 in
        let cuts = Min_cut_enum.enumerate_exhaustive g ~size:4 in
        check_is "2-2 splits exist" (cuts <> []);
        List.iter
          (fun c ->
            let covered =
              List.filter (Min_cut_enum.covers g c) (List.init (Graph.m g) Fun.id)
            in
            check_int "exactly the crossing edges" 4 (List.length covered);
            Alcotest.(check (list int))
              "covered = edge_ids" c.Min_cut_enum.edge_ids
              (List.sort compare covered))
          cuts);
    case "covers matches side separation" (fun () ->
        let g = Gen.cycle 5 in
        let cuts = Min_cut_enum.enumerate_exhaustive g ~size:2 in
        List.iter
          (fun c ->
            List.iter
              (fun e ->
                let u, v = Graph.endpoints g e in
                check_is "side test"
                  (Min_cut_enum.covers g c e
                  = (Bitset.mem c.Min_cut_enum.side u
                    <> Bitset.mem c.Min_cut_enum.side v)))
              (List.init (Graph.m g) Fun.id))
          cuts);
    qcheck
      (QCheck.Test.make ~name:"contraction enumeration finds all min cuts"
         ~count:30 (arb_connected ~max_n:14 ()) (fun params ->
           let g = graph_of_params params in
           let lam = Edge_connectivity.lambda g in
           if lam = 0 then true
           else begin
             let exact = Min_cut_enum.enumerate_exhaustive g ~size:lam in
             let rng = Rng.create ~seed:123 in
             let sampled = Min_cut_enum.enumerate ~rng g ~size:lam in
             let key c = c.Min_cut_enum.edge_ids in
             List.sort compare (List.map key exact)
             = List.sort compare (List.map key sampled)
           end));
    qcheck
      (QCheck.Test.make ~name:"every enumerated cut disconnects" ~count:30
         (arb_connected ~max_n:14 ()) (fun params ->
           let g = graph_of_params params in
           let lam = Edge_connectivity.lambda g in
           lam = 0
           || List.for_all
                (fun c ->
                  let mask = Graph.all_edges_mask g in
                  List.iter (Bitset.remove mask) c.Min_cut_enum.edge_ids;
                  not (Graph.is_connected ~mask g))
                (Min_cut_enum.enumerate_exhaustive g ~size:lam)));
  ]

(* ----- the exact label census against its oracles ----- *)

(* one graph per generator family, n ≤ 14 so the exhaustive oracle runs *)
let families =
  [|
    ("path", fun _ n -> Gen.path n);
    ("cycle", fun _ n -> Gen.cycle n);
    ("star", fun _ n -> Gen.star n);
    ("wheel", fun _ n -> Gen.wheel (max 4 n));
    ("complete", fun _ n -> Gen.complete (min n 8));
    ("circulant", fun _ n -> Gen.circulant (max 7 n) [ 1; 3 ]);
    ("harary3", fun _ n -> Gen.harary 3 (max 5 n));
    ("harary4", fun _ n -> Gen.harary 4 (max 6 n));
    ("torus", fun _ n -> Gen.torus 3 (max 3 (n / 3)));
    ("grid", fun _ n -> Gen.grid 3 (max 2 (n / 3)));
    ("hypercube", fun _ n -> Gen.hypercube (if n >= 12 then 3 else 2));
    ("lollipop", fun _ n -> Gen.lollipop (max 3 (n / 2)) (max 1 (n / 2)));
    ("caterpillar", fun _ n -> Gen.caterpillar (max 2 (n / 3)) 2);
    ("random_tree", fun rng n -> Gen.random_tree rng n);
    ("random_connected", fun rng n -> Gen.random_connected rng n 0.3);
    ("random_2_connected", fun rng n -> Gen.random_k_connected rng (max 4 n) 2 ~extra:n);
    ("random_3_connected", fun rng n -> Gen.random_k_connected rng (max 5 n) 3 ~extra:n);
    ( "random_geometric",
      fun rng n ->
        (* not connected by construction: grow the radius until it is *)
        let rec grow r =
          let g = Gen.random_geometric rng n r in
          if Graph.is_connected g then g else grow (r +. 0.2)
        in
        grow 0.5 );
    ("paper_figure2", fun _ _ -> Gen.paper_figure2 ());
  |]

(* (family, seed, n, masked): masked instances drop every third edge
   when H stays connected *)
let arb_family =
  QCheck.make
    ~print:(fun (f, seed, n, masked) ->
      Printf.sprintf "%s seed=%d n=%d masked=%b" (fst families.(f)) seed n masked)
    QCheck.Gen.(
      quad (int_bound (Array.length families - 1)) (int_bound 1_000_000)
        (int_range 4 14) bool)

let family_instance (f, seed, n, masked) =
  let g = (snd families.(f)) (Rng.create ~seed) n in
  let mask = Graph.all_edges_mask g in
  if masked then begin
    Graph.iter_edges
      (fun e -> if e.Graph.id mod 3 = 2 then Bitset.remove mask e.Graph.id)
      g;
    if not (Graph.is_connected ~mask g) then
      Bitset.union_into mask (Graph.all_edges_mask g)
  end;
  (g, mask)

let cut_keys cuts =
  List.map (fun c -> (c.Min_cut_enum.edge_ids, Bitset.elements c.Min_cut_enum.side)) cuts

let sorted_keys cuts = List.sort compare (cut_keys cuts)

(* a kecss-k3-shaped instance: weighted, 3-connected, 2n extra edges *)
let kecss_k3_graph ~n ~seed =
  let rng = Rng.create ~seed in
  Weights.uniform rng ~lo:1 ~hi:(n * n) (Gen.random_k_connected rng n 3 ~extra:(2 * n))

let census_tests =
  [
    qcheck
      (QCheck.Test.make ~name:"census equals the exhaustive cuts, sizes 1-3"
         ~count:120 arb_family (fun params ->
           let g, mask = family_instance params in
           let rng = Rng.create ~seed:(Graph.m g) in
           List.for_all
             (fun size ->
               let census = Min_cut_enum.census ~mask ~rng g ~size in
               cut_keys census
               = sorted_keys (Min_cut_enum.enumerate_exhaustive ~mask g ~size))
             [ 1; 2; 3 ]));
    qcheck
      (QCheck.Test.make ~name:"Verify's lambda equals capped Stoer-Wagner at caps 2-4"
         ~count:120 arb_family (fun params ->
           let g, mask = family_instance params in
           (* Verify and Edge_connectivity.lambda ask one oracle, so the
              reference is independent of both *)
           let sw = fst (Stoer_wagner.min_cut ~mask g) in
           List.for_all
             (fun cap ->
               (Verify.check_kecss ~cap g mask ~k:1).Verify.connectivity
               = min sw cap)
             [ 2; 3; 4 ]));
    case "2-bit labels collide falsely, the census stays exact" (fun () ->
        let false_collisions = ref 0 in
        Array.iteri
          (fun f _ ->
            let g, mask = family_instance (f, 17, 12, f mod 2 = 0) in
            List.iter
              (fun size ->
                let seed = 31 * f + size in
                let census =
                  Min_cut_enum.census ~bits:2 ~mask ~rng:(Rng.create ~seed) g ~size
                in
                let collisions =
                  Min_cut_enum.collisions ~bits:2 ~mask ~rng:(Rng.create ~seed) g ~size
                in
                false_collisions :=
                  !false_collisions + List.length collisions - List.length census;
                Alcotest.(check (list (pair (list int) (list int))))
                  (Printf.sprintf "%s size %d" (fst families.(f)) size)
                  (sorted_keys (Min_cut_enum.enumerate_exhaustive ~mask g ~size))
                  (cut_keys census))
              [ 2; 3 ])
          families;
        check_is "some collisions were false" (!false_collisions > 0));
    case "census equals Karger on kecss-k3-shaped graphs" (fun () ->
        List.iter
          (fun (n, seed) ->
            let g = kecss_k3_graph ~n ~seed in
            let h = (Kecss_core.Ecss2.solve ~seed g).Kecss_core.Ecss2.solution in
            check_int "H is 2-connected" 2 (Edge_connectivity.lambda ~mask:h ~upper:3 g);
            let rng () = Rng.create ~seed:(seed + 1) in
            let census = Min_cut_enum.census ~mask:h ~rng:(rng ()) g ~size:2 in
            check_is "H has 2-cuts" (census <> []);
            Alcotest.(check (list (pair (list int) (list int))))
              (Printf.sprintf "2-cuts of H at n=%d" n)
              (sorted_keys (Min_cut_enum.enumerate ~mask:h ~rng:(rng ()) g ~size:2))
              (cut_keys census))
          [ (48, 3); (96, 5) ];
        let g = kecss_k3_graph ~n:48 ~seed:3 in
        let h = (Kecss_core.Kecss.solve ~seed:3 g ~k:3).Kecss_core.Kecss.solution in
        check_int "H is 3-connected" 3 (Edge_connectivity.lambda ~mask:h g);
        let rng () = Rng.create ~seed:9 in
        let census = Min_cut_enum.census ~mask:h ~rng:(rng ()) g ~size:3 in
        check_is "H has 3-cuts" (census <> []);
        Alcotest.(check (list (pair (list int) (list int))))
          "3-cuts of H at n=48"
          (sorted_keys (Min_cut_enum.enumerate ~mask:h ~rng:(rng ()) g ~size:3))
          (cut_keys census));
    case "CI's census-smoke instance: Verify and the oracle equal Stoer-Wagner"
      (fun () ->
        (* generate --family random -n 512 -k 3 --extra 1024 --wmax 100
           --seed 7, solved by Kecss at seed 1 *)
        let rng = Rng.create ~seed:7 in
        let g =
          Weights.uniform rng ~lo:1 ~hi:100
            (Gen.random_k_connected rng 512 3 ~extra:1024)
        in
        let sol = (Kecss_core.Kecss.solve ~seed:1 g ~k:3).Kecss_core.Kecss.solution in
        let sw = fst (Stoer_wagner.min_cut ~mask:sol g) in
        check_is "3-edge-connected" (sw >= 3);
        List.iter
          (fun cap ->
            check_int (Printf.sprintf "Verify at cap %d" cap) (min sw cap)
              (Verify.check_kecss ~cap g sol ~k:3).Verify.connectivity)
          [ 3; 4; 5 ];
        check_int "uncapped lambda" sw (Edge_connectivity.lambda ~mask:sol g));
    case "census refuses a disconnected subgraph and sizes past 3" (fun () ->
        let g = Gen.cycle 6 in
        let rng = Rng.create ~seed:1 in
        let mask = Graph.all_edges_mask g in
        Bitset.remove mask 0;
        Bitset.remove mask 3;
        List.iter
          (fun size ->
            check_is "disconnected"
              (match Min_cut_enum.census ~mask ~rng g ~size with
               | _ -> false
               | exception Invalid_argument _ -> true))
          [ 1; 2; 3 ];
        check_is "size 4"
          (match Min_cut_enum.census ~rng g ~size:4 with
           | _ -> false
           | exception Invalid_argument _ -> true));
  ]

let verify_tests =
  [
    case "accepts a valid 2-ECSS" (fun () ->
        let g = Gen.cycle 8 in
        let r = Verify.check_kecss g (Graph.all_edges_mask g) ~k:2 in
        check_is "ok" r.Verify.ok;
        check_int "weight" 8 r.Verify.weight);
    case "rejects a spanning tree for k=2" (fun () ->
        let g = Gen.cycle 8 in
        let t = Rooted_tree.bfs_tree g ~root:0 in
        let r = Verify.check_kecss g (Rooted_tree.edges_mask t) ~k:2 in
        check_is "not ok" (not r.Verify.ok);
        check_int "connectivity" 1 r.Verify.connectivity);
    case "augmentation weight counts only aug edges" (fun () ->
        let g = Graph.make ~n:3 [ (0, 1, 5); (1, 2, 7); (0, 2, 100) ] in
        let h = Bitset.of_list 3 [ 0; 1 ] in
        let aug = Bitset.of_list 3 [ 2 ] in
        let r = Verify.check_augmentation g ~h ~aug ~k:2 in
        check_is "ok" r.Verify.ok;
        check_int "aug weight" 100 r.Verify.weight);
  ]

(* ----- the verification gate against independent oracles ----- *)

(* A seeded multigraph on 1 ≤ [n] ≤ 10 vertices: the cycle 0 → 1 → … → 0
   laid [layers] times (at n = 2 each layer is two parallel edges), up
   to 2n random edges that may repeat a pair, and a mask that drops
   about one edge in [drop] (none at 0). More layers raise the minimum
   degree past every cap the gate is run at. *)
let gate_instance (seed, n, layers, drop) =
  let rng = Rng.create ~seed in
  let edges = ref [] in
  if n >= 2 then begin
    for _ = 1 to layers do
      for v = 0 to n - 1 do
        edges := (v, (v + 1) mod n, 1 + Rng.int rng 9) :: !edges
      done
    done;
    for _ = 1 to Rng.int rng (2 * n + 1) do
      let u = Rng.int rng n and v = Rng.int rng n in
      if u <> v then edges := (u, v, 1 + Rng.int rng 9) :: !edges
    done
  end;
  let g = Graph.make ~n (List.rev !edges) in
  let mask = Graph.all_edges_mask g in
  if drop > 0 then
    Graph.iter_edges
      (fun e -> if Rng.int rng drop = 0 then Bitset.remove mask e.Graph.id)
      g;
  (g, mask)

let arb_gate =
  QCheck.make
    ~print:(fun ((seed, n, layers, drop), k) ->
      Printf.sprintf "seed=%d n=%d layers=%d drop=%d k=%d" seed n layers drop k)
    QCheck.Gen.(
      pair
        (quad (int_bound 1_000_000) (int_range 1 10) (int_range 0 4) (int_range 0 4))
        (int_range 1 4))

(* the fewest masked edges at a vertex, counted edge by edge *)
let masked_min_degree g mask =
  let deg = Array.make (Graph.n g) 0 in
  Graph.iter_edges
    (fun e ->
      if Bitset.mem mask e.Graph.id then begin
        deg.(e.Graph.u) <- deg.(e.Graph.u) + 1;
        deg.(e.Graph.v) <- deg.(e.Graph.v) + 1
      end)
    g;
  Array.fold_left min max_int deg

(* min(λ, upper) by Stoer–Wagner, with the gate's verdict at n = 1: one
   vertex has no cut at all (max_int) *)
let oracle_lambda g mask ~upper =
  if Graph.n g = 1 then max_int
  else min upper (fst (Stoer_wagner.min_cut ~mask g))

(* the caps the gate runs at: its default (k + 1), k … k + 2, unbounded *)
let gate_caps k = [ None; Some k; Some (k + 1); Some (k + 2); Some max_int ]

let gate_tests =
  [
    qcheck
      (QCheck.Test.make ~name:"Verify's report agrees with independent oracles"
         ~count:300 arb_gate (fun (params, k) ->
           let g, mask = gate_instance params in
           let spanning = Graph.is_connected ~mask g in
           let weight, edges =
             Graph.fold_edges
               (fun e (w, c) ->
                 if Bitset.mem mask e.Graph.id then (w + e.Graph.w, c + 1) else (w, c))
               g (0, 0)
           in
           List.for_all
             (fun cap ->
               let r = Verify.check_kecss ?cap g mask ~k in
               let upper = match cap with None -> k + 1 | Some c -> max c k in
               let lambda = oracle_lambda g mask ~upper in
               r.Verify.spanning = spanning
               && r.Verify.connectivity = lambda
               && r.Verify.required = k
               && r.Verify.weight = weight
               && r.Verify.edge_count = edges
               && r.Verify.ok = (spanning && lambda >= k)
               && Edge_connectivity.lambda ~mask ~upper g = lambda)
             (gate_caps k)));
    qcheck
      (QCheck.Test.make ~name:"masked lambda agrees with Stoer-Wagner" ~count:150
         arb_gate (fun ((seed, n, layers, drop), k) ->
           let g, mask = gate_instance (seed, max 2 n, layers, drop) in
           let sw, _ = Stoer_wagner.min_cut ~mask g in
           Edge_connectivity.lambda ~mask g = sw
           && Edge_connectivity.lambda ~mask ~upper:(k + 1) g = min sw (k + 1)
           && Edge_connectivity.is_k_edge_connected ~mask g k = (sw >= k)));
    case "the gate's instances put the minimum degree below, at and above the cap"
      (fun () ->
        (* what the qcheck above draws from, swept over fixed seeds; a
           bridgeless spanning mask whose bound min(upper, δ) lands on 3
           or 4 is one the exact census answers, for the uppers both
           qchecks ask: the gate's caps, k and δ itself *)
        let below = ref 0 and at = ref 0 and above = ref 0 in
        let bound3 = ref 0 and bound4 = ref 0 in
        for seed = 0 to 199 do
          let k = 1 + (seed mod 4) in
          let g, mask =
            gate_instance (seed, 2 + (seed mod 9), seed mod 5, seed mod 3)
          in
          let delta = masked_min_degree g mask in
          let uppers =
            List.map (function None -> k + 1 | Some c -> max c k) (gate_caps k)
          in
          List.iter
            (fun upper ->
              if delta < upper then incr below
              else if delta = upper then incr at
              else incr above)
            uppers;
          if Graph.is_connected ~mask g && Dfs.bridges ~mask g = [] then
            List.iter
              (fun upper ->
                let bound = min upper delta in
                if bound = 3 then incr bound3 else if bound = 4 then incr bound4)
              (k :: delta :: uppers)
        done;
        check_is "below" (!below > 0);
        check_is "at" (!at > 0);
        check_is "above" (!above > 0);
        check_is "bridgeless bound 3" (!bound3 > 0);
        check_is "bridgeless bound 4" (!bound4 > 0));
    case "the gate's verdicts at n = 0, 1 and 2" (fun () ->
        (* no graph has 0 vertices, so the gate never sees one *)
        check_is "n = 0 is refused"
          (match Graph.make ~n:0 [] with
           | _ -> false
           | exception Invalid_argument _ -> true);
        let one = Graph.make ~n:1 [] in
        List.iter
          (fun k ->
            let r = Verify.check_kecss one (Graph.all_edges_mask one) ~k in
            check_is "n = 1 spans" r.Verify.spanning;
            check_int "n = 1 has no cut" max_int r.Verify.connectivity;
            check_is "n = 1 passes" r.Verify.ok)
          [ 1; 2; 5 ];
        check_int "Edge_connectivity at n = 1" max_int (Edge_connectivity.lambda one);
        for j = 0 to 5 do
          let g = Graph.make ~n:2 (List.init j (fun _ -> (0, 1, 1))) in
          let mask = Graph.all_edges_mask g in
          List.iter
            (fun cap ->
              let r = Verify.check_kecss ?cap g mask ~k:2 in
              let upper = match cap with None -> 3 | Some c -> max c 2 in
              check_is (Printf.sprintf "%d parallel edges span" j)
                (r.Verify.spanning = (j > 0));
              check_int (Printf.sprintf "%d parallel edges" j) (min j upper)
                r.Verify.connectivity)
            (gate_caps 2);
          check_int "Dfs.bridges" (if j = 1 then 1 else 0)
            (List.length (Dfs.bridges g))
        done);
  ]

(* the definition: forest i is the lex-min (weight, id) spanning forest
   of the masked edges no earlier forest took *)
let peeled_levels ~mask g ~k =
  let level = Array.make (Graph.m g) 0 in
  let order =
    List.sort
      (fun a b -> compare (Graph.weight g a, a) (Graph.weight g b, b))
      (Bitset.elements mask)
  in
  for i = 1 to k do
    let uf = Union_find.create (Graph.n g) in
    List.iter
      (fun e ->
        if level.(e) = 0 && Union_find.union uf (Graph.edge_u g e) (Graph.edge_v g e)
        then level.(e) <- i)
      order
  done;
  level

let certificate_tests =
  [
    case "levels peel lex-min forests off the mask, at most k(n-1)" (fun () ->
        Alcotest.check_raises "k = 0"
          (Invalid_argument "Certificate.levels: k must be >= 1")
          (fun () -> ignore (Certificate.levels (Gen.cycle 4) ~k:0));
        let rng = Rng.create ~seed:8 in
        for n = 4 to 30 do
          let g = Gen.random_connected (Rng.split rng) n 0.4 in
          let weighted = Graph.map_weights (fun _ -> 1 + Rng.int rng 5) g in
          let mask = Graph.all_edges_mask g in
          Graph.iter_edges
            (fun e -> if Rng.int rng 4 = 0 then Bitset.remove mask e.Graph.id)
            g;
          for k = 1 to 3 do
            (* unit weights take the edges in id order, without a sort *)
            Alcotest.(check (array int))
              (Printf.sprintf "unit weights peel, n=%d k=%d" n k)
              (peeled_levels ~mask g ~k) (Certificate.levels ~mask g ~k);
            let g = weighted in
            let level = Certificate.levels ~mask g ~k in
            Alcotest.(check (array int))
              (Printf.sprintf "weighted peel, n=%d k=%d" n k)
              (peeled_levels ~mask g ~k) level;
            Array.iteri
              (fun e i -> if not (Bitset.mem mask e) then check_int "off mask" 0 i)
              level;
            let placed = ref 0 in
            for i = 1 to k do
              let f = Graph.no_edges_mask g in
              Array.iteri (fun e l -> if l = i then Bitset.add f e) level;
              let c = Bitset.cardinal f in
              placed := !placed + c;
              (* c edges on n vertices form a forest iff n - c components *)
              check_int
                (Printf.sprintf "level %d is a forest, n=%d k=%d" i n k)
                (n - c)
                (Graph.num_components ~mask:f g)
            done;
            check_is "at most k(n-1) placed" (!placed <= k * (n - 1))
          done
        done);
  ]

let () =
  Alcotest.run "connectivity"
    [
      ("dfs", dfs_tests);
      ("maxflow", maxflow_tests);
      ("edge_connectivity", ec_tests);
      ("stoer_wagner", sw_tests);
      ("min_cut_enum", enum_tests);
      ("census", census_tests);
      ("verify", verify_tests);
      ("gate", gate_tests);
      ("certificate", certificate_tests);
    ]
