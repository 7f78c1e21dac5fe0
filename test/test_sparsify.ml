(* Sparsification front-end: the certificate must preserve
   min(k, lambda) — the exact property the solvers need so that a
   solution computed on the sparsified subgraph, lifted back, still
   verifies against the original graph. *)

open Kecss_graph
open Common
module Sparsify = Kecss_sparsify.Sparsify
module Maint = Kecss_serve.Maint
module Edge_connectivity = Kecss_connectivity.Edge_connectivity

let kept_list sp = Bitset.fold (fun e acc -> e :: acc) sp.Sparsify.kept []

let sparsify_tests =
  [
    case "the certificate preserves min(k, lambda)" (fun () ->
        List.iter
          (fun seed ->
            let rng = Rng.create ~seed in
            for n = 5 to 24 do
              let g = Gen.random_connected (Rng.split rng) n 0.5 in
              for k = 1 to 3 do
                let sp = Sparsify.run g ~k in
                (* lambda clamped at k on both sides: the sparsified edge
                   set must match the original exactly *)
                check_int
                  (Printf.sprintf "n=%d k=%d seed=%d" n k seed)
                  (Edge_connectivity.lambda ~upper:k g)
                  (Edge_connectivity.lambda ~mask:sp.Sparsify.kept ~upper:k g)
              done
            done)
          [ 1; 2; 3 ]);
    case "the certificate equals the resident service's on weighted graphs"
      (fun () ->
        let rng = Rng.create ~seed:4 in
        for n = 6 to 40 do
          let g = Gen.random_connected (Rng.split rng) n 0.5 in
          let g = Graph.map_weights (fun _ -> 1 + Rng.int rng (2 * n)) g in
          for k = 1 to 3 do
            Alcotest.(check (list int))
              (Printf.sprintf "n=%d k=%d" n k)
              (Bitset.fold (fun e acc -> e :: acc)
                 (Maint.solution (Maint.create g ~k))
                 [])
              (kept_list (Sparsify.run g ~k))
          done
        done);
    case "sub ids map back to original edges and lift round-trips" (fun () ->
        let g = Gen.random_connected (Rng.create ~seed:7) 40 0.3 in
        let sp = Sparsify.run g ~k:2 in
        check_int "edges_in" (Graph.m g) sp.Sparsify.edges_in;
        check_int "edges_out" (Bitset.cardinal sp.Sparsify.kept)
          sp.Sparsify.edges_out;
        check_int "sub size" sp.Sparsify.edges_out (Graph.m sp.Sparsify.sub);
        Graph.iter_edges
          (fun e ->
            let orig = sp.Sparsify.to_original.(e.Graph.id) in
            let u, v = Graph.endpoints g orig in
            check_is "endpoints agree"
              ((e.Graph.u, e.Graph.v) = (u, v) || (e.Graph.v, e.Graph.u) = (u, v));
            check_int "weight agrees" (Graph.weight g orig) e.Graph.w;
            check_is "mapped edge is kept" (Bitset.mem sp.Sparsify.kept orig))
          sp.Sparsify.sub;
        let all_sub = Graph.all_edges_mask sp.Sparsify.sub in
        Alcotest.(check (list int))
          "lifting every sub edge gives the kept set" (kept_list sp)
          (Bitset.fold (fun e acc -> e :: acc) (Sparsify.lift sp all_sub) []));
    case "certificate keeps at most k(n-1) edges" (fun () ->
        let rng = Rng.create ~seed:3 in
        for _ = 1 to 5 do
          let g = Gen.random_connected (Rng.split rng) 60 0.4 in
          for k = 1 to 3 do
            let sp = Sparsify.run g ~k in
            check_is
              (Printf.sprintf "k=%d bound" k)
              (sp.Sparsify.edges_out <= k * (Graph.n g - 1))
          done
        done);
    case "seeded runs are deterministic and charge rounds" (fun () ->
        let g = Gen.random_connected (Rng.create ~seed:5) 50 0.4 in
        let a = Sparsify.run g ~k:2 in
        let b = Sparsify.run g ~k:2 in
        Alcotest.(check (list int)) "same kept set" (kept_list a) (kept_list b);
        check_is "rounds positive" (a.Sparsify.rounds > 0));
  ]

let () = Alcotest.run "sparsify" [ ("sparsify", sparsify_tests) ]
