open Kecss_graph
open Common

(* ---------- Rng ---------- *)

let rng_tests =
  [
    case "determinism" (fun () ->
        let a = Rng.create ~seed:5 and b = Rng.create ~seed:5 in
        for _ = 1 to 100 do
          check_int "same stream" (Rng.int a 1000) (Rng.int b 1000)
        done);
    case "split independence" (fun () ->
        let a = Rng.create ~seed:5 in
        let c1 = Rng.split a and c2 = Rng.split a in
        let s1 = List.init 20 (fun _ -> Rng.int c1 1_000_000) in
        let s2 = List.init 20 (fun _ -> Rng.int c2 1_000_000) in
        check_is "children differ" (s1 <> s2));
    case "int_in bounds" (fun () ->
        let r = Rng.create ~seed:1 in
        for _ = 1 to 1000 do
          let x = Rng.int_in r 3 7 in
          check_is "in range" (x >= 3 && x <= 7)
        done);
    case "permutation is a permutation" (fun () ->
        let r = Rng.create ~seed:2 in
        let p = Rng.permutation r 50 in
        let sorted = Array.copy p in
        Array.sort compare sorted;
        Alcotest.(check (array int)) "0..49" (Array.init 50 Fun.id) sorted);
    case "sample without replacement" (fun () ->
        let r = Rng.create ~seed:3 in
        let s = Rng.sample_without_replacement r 10 30 in
        check_int "size" 10 (List.length (List.sort_uniq compare s));
        List.iter (fun x -> check_is "range" (x >= 0 && x < 30)) s);
    case "bernoulli extremes" (fun () ->
        let r = Rng.create ~seed:4 in
        for _ = 1 to 50 do
          check_is "p=1" (Rng.bernoulli r 1.0);
          check_is "p=0" (not (Rng.bernoulli r 0.0))
        done);
    case "int64 is a full-width draw" (fun () ->
        (* regression: the old [int64 max_int] + sign-bit construction
           could never yield -1L or Int64.max_int; the fix draws one
           uniform 64-bit word.  The golden values pin that down. *)
        let r = Rng.create ~seed:1 in
        Alcotest.(check int64) "seed 1, draw 1" 3556019444436774532L
          (Rng.int64 r);
        Alcotest.(check int64) "seed 1, draw 2" 1358568322140096773L
          (Rng.int64 r);
        let r = Rng.create ~seed:42 in
        Alcotest.(check int64) "seed 42, draw 1" 3076811339059271267L
          (Rng.int64 r);
        (* every bit position takes both values over a modest sample *)
        let r = Rng.create ~seed:7 in
        let ones = ref 0L and zeros = ref 0L in
        for _ = 1 to 256 do
          let x = Rng.int64 r in
          ones := Int64.logor !ones x;
          zeros := Int64.logor !zeros (Int64.lognot x)
        done;
        Alcotest.(check int64) "all bits hit 1" (-1L) !ones;
        Alcotest.(check int64) "all bits hit 0" (-1L) !zeros);
  ]

(* ---------- Union_find ---------- *)

let union_find_tests =
  [
    case "basic unions" (fun () ->
        let uf = Union_find.create 10 in
        check_int "initial count" 10 (Union_find.count uf);
        check_is "union works" (Union_find.union uf 0 1);
        check_is "redundant union" (not (Union_find.union uf 1 0));
        check_is "same" (Union_find.same uf 0 1);
        check_is "not same" (not (Union_find.same uf 0 2));
        check_int "count" 9 (Union_find.count uf);
        check_int "size" 2 (Union_find.size uf 1));
    case "transitive chains" (fun () ->
        let uf = Union_find.create 100 in
        for i = 0 to 98 do
          ignore (Union_find.union uf i (i + 1))
        done;
        check_int "one set" 1 (Union_find.count uf);
        check_is "ends joined" (Union_find.same uf 0 99);
        check_int "size" 100 (Union_find.size uf 50));
    qcheck
      (QCheck.Test.make ~name:"union-find agrees with label propagation"
         ~count:50
         QCheck.(pair (int_bound 10_000) (int_range 2 30))
         (fun (seed, n) ->
           let rng = Rng.create ~seed in
           let uf = Union_find.create n in
           let labels = Array.init n Fun.id in
           let relabel a b =
             let la = labels.(a) and lb = labels.(b) in
             if la <> lb then
               Array.iteri (fun i l -> if l = lb then labels.(i) <- la) labels
           in
           for _ = 1 to 2 * n do
             let a = Rng.int rng n and b = Rng.int rng n in
             if a <> b then begin
               ignore (Union_find.union uf a b);
               relabel a b
             end
           done;
           let ok = ref true in
           for a = 0 to n - 1 do
             for b = 0 to n - 1 do
               if Union_find.same uf a b <> (labels.(a) = labels.(b)) then
                 ok := false
             done
           done;
           !ok));
  ]

(* ---------- Heap ---------- *)

let heap_tests =
  [
    case "pop order" (fun () ->
        let h = Heap.create () in
        List.iter (fun p -> Heap.push h ~prio:p p) [ 5; 1; 4; 1; 3 ];
        let order = ref [] in
        let rec drain () =
          match Heap.pop h with
          | Some (p, _) ->
            order := p :: !order;
            drain ()
          | None -> ()
        in
        drain ();
        Alcotest.(check (list int)) "sorted" [ 5; 4; 3; 1; 1 ] !order);
    case "peek does not remove" (fun () ->
        let h = Heap.create () in
        Heap.push h ~prio:2 "b";
        Heap.push h ~prio:1 "a";
        check_is "peek min" (Heap.peek h = Some (1, "a"));
        check_int "size" 2 (Heap.size h));
    qcheck
      (QCheck.Test.make ~name:"heap sorts like List.sort" ~count:100
         QCheck.(list int)
         (fun xs ->
           let h = Heap.create () in
           List.iter (fun x -> Heap.push h ~prio:x x) xs;
           let rec drain acc =
             match Heap.pop h with
             | Some (p, _) -> drain (p :: acc)
             | None -> List.rev acc
           in
           drain [] = List.sort compare xs));
  ]

(* ---------- Bitset ---------- *)

let bitset_tests =
  [
    case "add remove mem" (fun () ->
        let s = Bitset.create 100 in
        check_is "empty" (Bitset.is_empty s);
        Bitset.add s 7;
        Bitset.add s 63;
        Bitset.add s 64;
        check_is "mem 7" (Bitset.mem s 7);
        check_is "mem 64" (Bitset.mem s 64);
        check_is "not mem 8" (not (Bitset.mem s 8));
        check_int "card" 3 (Bitset.cardinal s);
        Bitset.remove s 63;
        check_int "card after remove" 2 (Bitset.cardinal s);
        Alcotest.(check (list int)) "elements" [ 7; 64 ] (Bitset.elements s));
    case "out of range raises" (fun () ->
        let s = Bitset.create 10 in
        Alcotest.check_raises "add" (Invalid_argument "Bitset: index out of universe")
          (fun () -> Bitset.add s 10);
        Alcotest.check_raises "mem" (Invalid_argument "Bitset: index out of universe")
          (fun () -> ignore (Bitset.mem s (-1))));
    case "word boundaries" (fun () ->
        (* the packed representation stores 63 members per word; exercise
           the seams at 62/63/64 and the last partial word *)
        List.iter
          (fun n ->
            let s = Bitset.create n in
            for i = 0 to n - 1 do
              Bitset.add s i
            done;
            check_int "cardinal full" n (Bitset.cardinal s);
            check_is "equal full" (Bitset.equal s (Bitset.full n));
            Alcotest.(check (list int))
              "elements ascending"
              (List.init n Fun.id)
              (Bitset.elements s);
            Bitset.remove s (n - 1);
            check_int "cardinal minus top" (n - 1) (Bitset.cardinal s);
            check_is "top removed" (not (Bitset.mem s (n - 1)));
            Bitset.clear s;
            check_is "cleared" (Bitset.is_empty s))
          [ 1; 62; 63; 64; 126; 127; 200 ];
        let s = Bitset.create 127 in
        Bitset.add s 62;
        Bitset.add s 63;
        Bitset.add s 126;
        Alcotest.(check (list int))
          "straddles words" [ 62; 63; 126 ] (Bitset.elements s);
        check_int "sparse cardinal" 3 (Bitset.cardinal s));
    qcheck
      (QCheck.Test.make ~name:"set algebra agrees with stdlib sets" ~count:200
         QCheck.(
           triple (int_range 1 120)
             (small_list (int_bound 200))
             (small_list (int_bound 200)))
         (fun (n, xs, ys) ->
           let module IS = Set.Make (Int) in
           let xs = List.filter (fun x -> x < n) xs
           and ys = List.filter (fun y -> y < n) ys in
           let a = Bitset.of_list n xs and b = Bitset.of_list n ys in
           let sa = IS.of_list xs and sb = IS.of_list ys in
           let check op sop =
             let t = Bitset.copy a in
             op t b;
             Bitset.elements t = IS.elements (sop sa sb)
           in
           check Bitset.union_into IS.union
           && check Bitset.inter_into IS.inter
           && check Bitset.diff_into IS.diff
           && Bitset.subset a b = IS.subset sa sb
           && Bitset.equal a b = IS.equal sa sb
           && Bitset.cardinal a = IS.cardinal sa));
  ]

(* ---------- Graph ---------- *)

let graph_tests =
  [
    case "construction and adjacency" (fun () ->
        let g = Graph.make ~n:4 [ (0, 1, 5); (1, 2, 3); (2, 0, 1); (2, 3, 9) ] in
        check_int "n" 4 (Graph.n g);
        check_int "m" 4 (Graph.m g);
        check_int "degree 2" 3 (Graph.degree g 2);
        check_int "weight" 3 (Graph.weight g 1);
        check_int "total" 18 (Graph.total_weight g);
        check_is "find_edge" (Graph.find_edge g 0 2 = Some 2);
        check_is "no edge" (Graph.find_edge g 0 3 = None);
        check_int "other_end" 3 (Graph.other_end g 3 2);
        let u, v = Graph.endpoints g 0 in
        check_int "endpoint order u" 0 u;
        check_int "endpoint order v" 1 v);
    case "rejects bad input" (fun () ->
        Alcotest.check_raises "self loop"
          (Invalid_argument "Graph.make: edge 0: self-loop at vertex 1")
          (fun () -> ignore (Graph.make ~n:3 [ (1, 1, 0) ]));
        Alcotest.check_raises "range"
          (Invalid_argument
             "Graph.make: edge 0: endpoint 3 out of range [0, 3)") (fun () ->
            ignore (Graph.make ~n:3 [ (0, 3, 1) ]));
        Alcotest.check_raises "negative"
          (Invalid_argument "Graph.make: edge 0: negative weight -2") (fun () ->
            ignore (Graph.make ~n:3 [ (0, 1, -2) ])));
    case "bfs distances on cycle" (fun () ->
        let g = Gen.cycle 8 in
        let d = Graph.bfs g 0 in
        check_int "opposite" 4 d.(4);
        check_int "adjacent" 1 d.(1);
        check_int "diameter" 4 (Graph.diameter g));
    case "components with mask" (fun () ->
        let g = Gen.path 5 in
        let mask = Graph.all_edges_mask g in
        Bitset.remove mask 2;
        check_int "two components" 2 (Graph.num_components ~mask g);
        check_is "not connected" (not (Graph.is_connected ~mask g));
        check_is "full graph connected" (Graph.is_connected g));
    case "map_weights keeps structure" (fun () ->
        let g = Gen.cycle 6 in
        let g2 = Graph.map_weights (fun e -> e.Graph.id * 10) g in
        check_int "n" (Graph.n g) (Graph.n g2);
        check_int "weight of 3" 30 (Graph.weight g2 3);
        check_int "unit total" 6 (Graph.total_weight (Graph.unit_weights g2)));
    case "mask_weight" (fun () ->
        let g = Graph.make ~n:3 [ (0, 1, 5); (1, 2, 7); (0, 2, 11) ] in
        let s = Bitset.of_list 3 [ 0; 2 ] in
        check_int "sum" 16 (Graph.mask_weight g s));
    qcheck
      (QCheck.Test.make ~name:"bfs tree spans connected graphs" ~count:60
         (arb_connected ()) (fun params ->
           let g = graph_of_params params in
           let dist, pe = Graph.bfs_tree g 0 in
           Array.for_all (fun d -> d >= 0) dist
           && Array.length (Array.of_seq (Seq.filter (fun x -> x >= 0) (Array.to_seq pe)))
              = Graph.n g - 1));
  ]

(* ---------- Generators ---------- *)

let gen_tests =
  [
    case "family sizes" (fun () ->
        check_int "path edges" 8 (Graph.m (Gen.path 9));
        check_int "cycle edges" 9 (Graph.m (Gen.cycle 9));
        check_int "complete edges" 21 (Graph.m (Gen.complete 7));
        check_int "hypercube vertices" 16 (Graph.n (Gen.hypercube 4));
        check_int "hypercube edges" 32 (Graph.m (Gen.hypercube 4));
        check_int "torus edges" 32 (Graph.m (Gen.torus 4 4));
        check_int "grid edges" 24 (Graph.m (Gen.grid 4 4));
        check_int "wheel edges" 16 (Graph.m (Gen.wheel 9));
        check_int "star edges" 9 (Graph.m (Gen.star 10)));
    case "harary has ceil(kn/2) edges" (fun () ->
        List.iter
          (fun (k, n) ->
            check_int
              (Printf.sprintf "harary %d %d" k n)
              (((k * n) + 1) / 2)
              (Graph.m (Gen.harary k n)))
          [ (2, 9); (3, 10); (3, 11); (4, 11); (5, 12); (5, 13) ]);
    case "harary is exactly k-edge-connected" (fun () ->
        (* locks in the audit of the odd-k constructions: every parity
           quadrant, including the odd-k/odd-n corner where the chord
           endpoints are the delicate part.  lambda is clamped at k+1 so
           the equality also rules out overshooting. *)
        let check k n =
          let g = Gen.harary k n in
          check_int
            (Printf.sprintf "edges H_{%d,%d}" k n)
            (((k * n) + 1) / 2)
            (Graph.m g);
          check_int
            (Printf.sprintf "lambda H_{%d,%d}" k n)
            k
            (Kecss_connectivity.Edge_connectivity.lambda ~upper:(k + 1) g)
        in
        for n = 4 to 24 do
          for k = 2 to min (n - 1) 8 do
            check k n
          done
        done;
        (* odd k, odd n, larger instances *)
        List.iter
          (fun n -> List.iter (fun k -> check k n) [ 3; 5; 7; 9 ])
          [ 25; 33; 41; 49; 63 ]);
    case "generated families are connected" (fun () ->
        List.iter
          (fun (name, g) -> check_is (name ^ " connected") (Graph.is_connected g))
          (connected_pool ()));
    case "random tree is a tree" (fun () ->
        let rng = Rng.create ~seed:8 in
        for n = 1 to 20 do
          let t = Gen.random_tree rng n in
          check_int "edge count" (n - 1) (Graph.m t);
          check_is "connected" (Graph.is_connected t)
        done);
    case "lollipop shape" (fun () ->
        let g = Gen.lollipop 5 4 in
        check_int "n" 9 (Graph.n g);
        check_int "m" (10 + 4) (Graph.m g);
        check_int "diameter" 5 (Graph.diameter g));
    case "figure 2 graph" (fun () ->
        let g = Gen.paper_figure2 () in
        check_int "n" 8 (Graph.n g);
        check_int "m" 12 (Graph.m g);
        check_is "connected" (Graph.is_connected g));
    qcheck
      (QCheck.Test.make ~name:"random_k_connected never duplicates edges"
         ~count:40
         QCheck.(triple (int_bound 100_000) (int_range 6 30) (int_range 2 4))
         (fun (seed, n, k) ->
           let rng = Rng.create ~seed in
           let g = Gen.random_k_connected rng n k ~extra:10 in
           let seen = Hashtbl.create 64 in
           Graph.fold_edges
             (fun e ok ->
               let key = (e.Graph.u, e.Graph.v) in
               let fresh = not (Hashtbl.mem seen key) in
               Hashtbl.replace seen key ();
               ok && fresh)
             g true));
    qcheck
      (QCheck.Test.make ~name:"random_k_connected has min degree >= k"
         ~count:40
         QCheck.(triple (int_bound 100_000) (int_range 6 30) (int_range 2 4))
         (fun (seed, n, k) ->
           let rng = Rng.create ~seed in
           let g = Gen.random_k_connected rng n k ~extra:4 in
           let deg = Array.make n 0 in
           Graph.iter_edges
             (fun e ->
               deg.(e.Graph.u) <- deg.(e.Graph.u) + 1;
               deg.(e.Graph.v) <- deg.(e.Graph.v) + 1)
             g;
           Array.for_all (fun d -> d >= k) deg));
  ]

(* ---------- Weights ---------- *)

let weight_tests =
  [
    case "uniform in range" (fun () ->
        let rng = Rng.create ~seed:4 in
        let g = Weights.uniform rng ~lo:5 ~hi:9 (Gen.complete 8) in
        Graph.iter_edges
          (fun e -> check_is "range" (e.Graph.w >= 5 && e.Graph.w <= 9))
          g);
    case "spread ratio bounded" (fun () ->
        let rng = Rng.create ~seed:4 in
        let g = Weights.spread rng ~ratio:64 (Gen.complete 10) in
        let lo = Graph.fold_edges (fun e acc -> min acc e.Graph.w) g max_int in
        let hi = Graph.max_weight g in
        check_is "positive" (lo >= 1);
        check_is "ratio" (hi <= 2 * 64 * lo));
    case "euclidean positive" (fun () ->
        let rng = Rng.create ~seed:4 in
        let g = Weights.euclidean rng ~scale:100 (Gen.cycle 12) in
        Graph.iter_edges (fun e -> check_is "positive" (e.Graph.w >= 1)) g);
    case "zero_some zeroes a fraction" (fun () ->
        let rng = Rng.create ~seed:4 in
        let g =
          Weights.zero_some rng ~fraction:1.0
            (Weights.uniform rng ~lo:1 ~hi:5 (Gen.cycle 10))
        in
        check_int "all zero" 0 (Graph.total_weight g));
  ]

(* ---------- Io ---------- *)

let io_tests =
  [
    case "roundtrip simple" (fun () ->
        let g = Graph.make ~n:4 [ (0, 1, 5); (2, 3, 0); (1, 3, 12) ] in
        let g2 = Io.of_string (Io.to_string g) in
        check_int "n" (Graph.n g) (Graph.n g2);
        check_int "m" (Graph.m g) (Graph.m g2);
        Graph.iter_edges
          (fun e ->
            let u, v = Graph.endpoints g2 e.Graph.id in
            check_int "u" e.Graph.u u;
            check_int "v" e.Graph.v v;
            check_int "w" e.Graph.w (Graph.weight g2 e.Graph.id))
          g);
    case "comments and blanks ignored" (fun () ->
        let g = Io.of_string "c a comment\n\np kecss 2 1\nc another\ne 0 1 7\n" in
        check_int "m" 1 (Graph.m g));
    case "bad input rejected" (fun () ->
        List.iter
          (fun s ->
            match Io.of_string s with
            | exception Failure _ -> ()
            | _ -> Alcotest.fail "should have raised")
          [
            "e 0 1 2\n";
            "p kecss 3 2\ne 0 1 2\n";
            "p kecss x 1\ne 0 1 2\n";
            "p kecss 3 1\nbogus\n";
          ]);
    case "parse errors carry line numbers and reasons" (fun () ->
        let expect input msg =
          match Io.of_string input with
          | exception Failure m -> Alcotest.(check string) input msg m
          | _ -> Alcotest.fail ("should have raised: " ^ input)
        in
        expect "p kecss 0 0\n" "Io.of_string: line 1: bad header numbers";
        expect "e 0 1 2\n"
          "Io.of_string: line 1: edge line before the p kecss header";
        expect "p kecss 3 1\ne 0 3 1\n"
          "Io.of_string: line 2: endpoint 3 out of range [0, 3)";
        expect "p kecss 3 1\ne -1 2 1\n"
          "Io.of_string: line 2: endpoint -1 out of range [0, 3)";
        expect "p kecss 3 1\ne 1 1 1\n"
          "Io.of_string: line 2: self-loop at vertex 1";
        expect "p kecss 3 1\ne 0 1 -2\n"
          "Io.of_string: line 2: negative weight -2";
        expect "p kecss 3 2\ne 0 1 1\ne 1 0 4\n"
          "Io.of_string: line 3: duplicate edge 1 0";
        expect "p kecss 3 1\ne 0 1 1\ntrailing garbage\n"
          "Io.of_string: line 3: unrecognized line");
    case "comment detection is exact" (fun () ->
        (* only "c" or "c <text>" is a comment; a line that merely starts
           with the letter c used to be silently swallowed *)
        check_int "bare c" 1 (Graph.m (Io.of_string "c\np kecss 2 1\ne 0 1 1\n"));
        check_int "c with text" 1
          (Graph.m (Io.of_string "c 1 2\np kecss 2 1\ne 0 1 1\n"));
        match Io.of_string "cost 3\np kecss 2 1\ne 0 1 1\n" with
        | exception Failure m ->
          Alcotest.(check string) "cost rejected"
            "Io.of_string: line 1: unrecognized line" m
        | _ -> Alcotest.fail "a 'cost ...' line must not parse as a comment");
    case "dot output mentions highlights" (fun () ->
        let g = Gen.cycle 4 in
        let hl = Bitset.of_list (Graph.m g) [ 1 ] in
        let dot = Io.to_dot ~highlight:hl g in
        check_is "has penwidth" (String.length dot > 0
                                 && String.length (String.concat "" [ dot ]) > 0
                                 &&
                                 let re = "penwidth" in
                                 let rec contains i =
                                   if i + String.length re > String.length dot then false
                                   else if String.sub dot i (String.length re) = re then true
                                   else contains (i + 1)
                                 in
                                 contains 0));
    case "a vertex count past 2m+1 is refused at the header" (fun () ->
        (* n = 2^40 used to reach per-vertex allocation and run out of
           memory; the edge lines after the header are never read *)
        (match Io.of_string "p kecss 1099511627776 1\ne 0 1 1\n" with
        | exception Failure m ->
          Alcotest.(check string) "named"
            "Io.of_string: line 1: vertex count 1099511627776 exceeds 2m+1 = \
             3 for m=1"
            m
        | _ -> Alcotest.fail "a 2^40-vertex header must not load");
        (* the bound itself still loads: one edge and one isolated vertex *)
        check_int "n = 2m+1" 3 (Graph.n (Io.of_string "p kecss 3 1\ne 0 1 1\n")));
    qcheck
      (QCheck.Test.make ~name:"io roundtrip on random graphs" ~count:50
         (arb_connected ()) (fun params ->
           let g = graph_of_params params in
           let g2 = Io.of_string (Io.to_string g) in
           Io.to_string g = Io.to_string g2));
  ]

(* ---------- binary Io ---------- *)

(* corrupt one region of a valid binary image *)
let patch64 s off v =
  let b = Bytes.of_string s in
  Bytes.set_int64_le b off v;
  Bytes.to_string b

let binary_io_tests =
  let sample () =
    Graph.make ~n:5 [ (0, 1, 5); (2, 3, 0); (1, 3, 12); (0, 4, 3); (3, 4, 1) ]
  in
  let expect_failure input msg =
    match Io.of_binary_string input with
    | exception Failure m -> Alcotest.(check string) msg msg m
    | _ -> Alcotest.fail ("should have raised: " ^ msg)
  in
  [
    case "binary roundtrip is byte-for-byte" (fun () ->
        let g = sample () in
        let bin = Io.to_binary_string g in
        let g2 = Io.of_binary_string bin in
        Alcotest.(check string) "text identical" (Io.to_string g) (Io.to_string g2);
        Alcotest.(check string) "binary identical" bin (Io.to_binary_string g2));
    case "binary preserves edge ids and adjacency order" (fun () ->
        let g = sample () in
        let g2 = Io.of_binary_string (Io.to_binary_string g) in
        check_int "n" (Graph.n g) (Graph.n g2);
        check_int "m" (Graph.m g) (Graph.m g2);
        for e = 0 to Graph.m g - 1 do
          check_int "u" (Graph.edge_u g e) (Graph.edge_u g2 e);
          check_int "v" (Graph.edge_v g e) (Graph.edge_v g2 e);
          check_int "w" (Graph.weight g e) (Graph.weight g2 e)
        done;
        for v = 0 to Graph.n g - 1 do
          let walk gr =
            let acc = ref [] in
            Graph.iter_adj gr v (fun nb eid -> acc := (nb, eid) :: !acc);
            List.rev !acc
          in
          Alcotest.(check (list (pair int int)))
            "adjacency run identical" (walk g) (walk g2)
        done);
    case "save/load roundtrip and format sniffing" (fun () ->
        let g = sample () in
        let dir = Filename.temp_file "kecss" "" in
        Sys.remove dir;
        let bin_path = dir ^ ".bin" and txt_path = dir ^ ".txt" in
        Fun.protect
          ~finally:(fun () ->
            List.iter
              (fun p -> if Sys.file_exists p then Sys.remove p)
              [ bin_path; txt_path ])
          (fun () ->
            Io.save_binary bin_path g;
            let oc = open_out txt_path in
            Io.to_channel oc g;
            close_out oc;
            Alcotest.(check string)
              "load_binary" (Io.to_string g)
              (Io.to_string (Io.load_binary bin_path));
            (* Io.load sniffs the magic and reads either format *)
            Alcotest.(check string)
              "load sniffs binary" (Io.to_string g)
              (Io.to_string (Io.load bin_path));
            Alcotest.(check string)
              "load sniffs text" (Io.to_string g)
              (Io.to_string (Io.load txt_path))));
    case "decode errors name the bad offset" (fun () ->
        let g = sample () in
        let bin = Io.to_binary_string g in
        expect_failure (String.sub bin 0 5)
          "Io.of_binary: offset 0: truncated header: 5 bytes, need at least 32";
        expect_failure ("XXXXXXXX" ^ String.sub bin 8 (String.length bin - 8))
          "Io.of_binary: offset 0: bad magic (expected \"kecssbin\")";
        expect_failure (patch64 bin 8 9L)
          "Io.of_binary: offset 8: unsupported version 9 (this build reads \
           version 1)";
        expect_failure (patch64 bin 16 (-1L))
          "Io.of_binary: offset 16: bad vertex count -1";
        expect_failure (patch64 bin 24 (-3L))
          "Io.of_binary: offset 24: bad edge count -3";
        expect_failure
          (String.sub bin 0 (String.length bin - 8))
          "Io.of_binary: offset 32: truncated edge data: 144 bytes, need 152 \
           for m=5";
        expect_failure (bin ^ "overrun!")
          "Io.of_binary: offset 152: trailing bytes: 160 bytes, expected 152 \
           for m=5";
        (* first endpoint word out of range: the offset is the edge's *)
        expect_failure (patch64 bin 32 99L)
          "Io.of_binary: offset 32: edge 0: endpoint 99 out of range [0, 5)");
    case "a vertex count past 2m+1 is refused before allocation" (fun () ->
        let bin = Io.to_binary_string (sample ()) in
        expect_failure
          (patch64 bin 16 (Int64.shift_left 1L 40))
          "Io.of_binary: offset 16: vertex count 1099511627776 exceeds 2m+1 = \
           11 for m=5";
        check_int "n = 2m+1" 11 (Graph.n (Io.of_binary_string (patch64 bin 16 11L))));
    case "is_binary_magic" (fun () ->
        let g = sample () in
        check_is "binary" (Io.is_binary_magic (Io.to_binary_string g));
        check_is "text" (not (Io.is_binary_magic (Io.to_string g)));
        check_is "short" (not (Io.is_binary_magic "kecss")));
    qcheck
      (QCheck.Test.make ~name:"binary roundtrip on random graphs" ~count:50
         (arb_connected ()) (fun params ->
           let g = graph_of_params params in
           let bin = Io.to_binary_string g in
           let g2 = Io.of_binary_string bin in
           Io.to_string g = Io.to_string g2
           && bin = Io.to_binary_string g2));
  ]

(* ---------- CSR core: of_arrays and flat accessors ---------- *)

let csr_tests =
  [
    case "of_arrays matches make" (fun () ->
        let spec = [ (0, 1, 5); (3, 2, 0); (1, 3, 12); (4, 0, 3) ] in
        let ga = Graph.make ~n:5 spec in
        let gb =
          Graph.of_arrays ~n:5
            (Array.of_list (List.map (fun (u, _, _) -> u) spec))
            (Array.of_list (List.map (fun (_, v, _) -> v) spec))
            (Array.of_list (List.map (fun (_, _, w) -> w) spec))
        in
        Alcotest.(check string) "identical" (Io.to_string ga) (Io.to_string gb);
        (* endpoints are normalised u < v regardless of input order *)
        check_int "swapped u" 2 (Graph.edge_u gb 1);
        check_int "swapped v" 3 (Graph.edge_v gb 1));
    case "of_arrays validates" (fun () ->
        let expect msg mk =
          match mk () with
          | exception Invalid_argument m -> Alcotest.(check string) msg msg m
          | _ -> Alcotest.fail ("should have raised: " ^ msg)
        in
        expect "Graph.of_arrays: n must be positive" (fun () ->
            Graph.of_arrays ~n:0 [||] [||] [||]);
        expect "Graph.of_arrays: endpoint/weight arrays disagree on length"
          (fun () -> Graph.of_arrays ~n:2 [| 0 |] [| 1 |] [||]);
        expect "Graph.of_arrays: edge 0: endpoint 2 out of range [0, 2)"
          (fun () -> Graph.of_arrays ~n:2 [| 0 |] [| 2 |] [| 1 |]);
        expect "Graph.of_arrays: edge 0: self-loop at vertex 1" (fun () ->
            Graph.of_arrays ~n:2 [| 1 |] [| 1 |] [| 1 |]);
        expect "Graph.of_arrays: edge 0: negative weight -4" (fun () ->
            Graph.of_arrays ~n:2 [| 0 |] [| 1 |] [| -4 |]));
    qcheck
      (QCheck.Test.make ~name:"flat accessors agree with adj/edges" ~count:50
         (arb_connected ()) (fun params ->
           let g = graph_of_params params in
           let ok = ref true in
           (* iter_adj/adj_*_at/fold_adj reproduce the adjacency of the
              edge list, in ascending edge-id order *)
           let adj = Array.make (Graph.n g) [] in
           Graph.iter_edges
             (fun e ->
               adj.(e.Graph.u) <- (e.Graph.v, e.Graph.id) :: adj.(e.Graph.u);
               adj.(e.Graph.v) <- (e.Graph.u, e.Graph.id) :: adj.(e.Graph.v))
             g;
           for v = 0 to Graph.n g - 1 do
             let compat = List.rev adj.(v) in
             let via_iter = ref [] in
             Graph.iter_adj g v (fun nb eid -> via_iter := (nb, eid) :: !via_iter);
             if List.rev !via_iter <> compat then ok := false;
             let via_at =
               List.init (Graph.degree g v) (fun i ->
                   (Graph.adj_nbr_at g v i, Graph.adj_eid_at g v i))
             in
             if via_at <> compat then ok := false;
             let via_fold =
               Graph.fold_adj g v (fun acc nb eid -> (nb, eid) :: acc) []
             in
             if List.rev via_fold <> compat then ok := false
           done;
           (* edge_u/edge_v reproduce the edge records *)
           Graph.iter_edges
             (fun e ->
               if
                 Graph.edge_u g e.Graph.id <> e.Graph.u
                 || Graph.edge_v g e.Graph.id <> e.Graph.v
               then ok := false)
             g;
           !ok));
  ]

(* ---------- Rooted_tree ---------- *)

let naive_lca tree u v =
  let rec ancestors x acc =
    if x < 0 then acc else ancestors (Rooted_tree.parent tree x) (x :: acc)
  in
  let au = ancestors u [] and av = ancestors v [] in
  let rec common last = function
    | x :: xs, y :: ys when x = y -> common x (xs, ys)
    | _ -> last
  in
  common (List.hd au) (List.tl au, List.tl av)

(* the path 0-1-..-(n-1), its edges first, plus random chords, with the
   path as its tree, rooted at a random vertex *)
let path_shaped (seed, n, p) =
  let rng = Rng.create ~seed in
  let chords =
    List.init
      (1 + int_of_float (p *. float_of_int (2 * n)))
      (fun _ ->
        let u = Rng.int rng n in
        (u, (u + 1 + Rng.int rng (n - 1)) mod n, 1))
  in
  let g = Graph.make ~n (List.init (n - 1) (fun i -> (i, i + 1, 1)) @ chords) in
  let mask = Graph.no_edges_mask g in
  for e = 0 to n - 2 do
    Bitset.add mask e
  done;
  Rooted_tree.of_mask g ~root:(Rng.int rng n) mask

let tree_tests =
  [
    case "bfs tree of a path" (fun () ->
        let g = Gen.path 6 in
        let t = Rooted_tree.bfs_tree g ~root:0 in
        check_int "depth of end" 5 (Rooted_tree.depth t 5);
        check_int "height" 5 (Rooted_tree.height t);
        check_int "parent" 3 (Rooted_tree.parent t 4);
        check_int "lca" 2 (Rooted_tree.lca t 2 5);
        check_is "ancestor" (Rooted_tree.is_ancestor t 1 4);
        check_is "not ancestor" (not (Rooted_tree.is_ancestor t 4 1)));
    case "fundamental path on cycle" (fun () ->
        let g = Gen.cycle 6 in
        let t = Rooted_tree.bfs_tree g ~root:0 in
        (* the edge closing the cycle covers all tree edges *)
        let closing =
          Graph.fold_edges
            (fun e acc ->
              if Rooted_tree.is_tree_edge t e.Graph.id then acc else e.Graph.id :: acc)
            g []
        in
        match closing with
        | [ e ] ->
          check_int "covers all" 5 (List.length (Rooted_tree.fundamental_path t e))
        | _ -> Alcotest.fail "cycle should have one non-tree edge");
    case "of_mask validates" (fun () ->
        let g = Gen.cycle 4 in
        Alcotest.check_raises "wrong count"
          (Invalid_argument
             "Rooted_tree.of_mask: wrong edge count for a spanning tree")
          (fun () -> ignore (Rooted_tree.of_mask g ~root:0 (Graph.all_edges_mask g))));
    qcheck
      (QCheck.Test.make ~name:"lca agrees with the naive walk" ~count:60
         (arb_connected ~max_n:20 ()) (fun params ->
           let g = graph_of_params params in
           let t = Rooted_tree.bfs_tree g ~root:0 in
           let ok = ref true in
           for u = 0 to Graph.n g - 1 do
             for v = 0 to Graph.n g - 1 do
               if Rooted_tree.lca t u v <> naive_lca t u v then ok := false
             done
           done;
           !ok));
    qcheck
      (QCheck.Test.make ~name:"covers agrees with fundamental_path" ~count:40
         (arb_connected ~max_n:16 ()) (fun params ->
           let g = graph_of_params params in
           let t = Rooted_tree.bfs_tree g ~root:0 in
           Graph.fold_edges
             (fun e ok ->
               if Rooted_tree.is_tree_edge t e.Graph.id then ok
               else
                 let path = Rooted_tree.fundamental_path t e.Graph.id in
                 ok
                 && Graph.fold_edges
                      (fun te ok2 ->
                        if Rooted_tree.is_tree_edge t te.Graph.id then
                          ok2
                          && Rooted_tree.covers t e.Graph.id te.Graph.id
                             = List.mem te.Graph.id path
                        else ok2)
                      g true)
             g true));
    qcheck
      (QCheck.Test.make ~name:"cover_counts agrees with per-edge covers"
         ~count:40 (arb_connected ~max_n:16 ()) (fun params ->
           let g = graph_of_params params in
           let t = Rooted_tree.bfs_tree g ~root:0 in
           let non_tree =
             Graph.fold_edges
               (fun e acc ->
                 if Rooted_tree.is_tree_edge t e.Graph.id then acc
                 else e.Graph.id :: acc)
               g []
           in
           let counts = Rooted_tree.cover_counts t non_tree in
           let ok = ref true in
           for x = 0 to Graph.n g - 1 do
             if x <> Rooted_tree.root t then begin
               let te = Rooted_tree.parent_edge t x in
               let manual =
                 List.length (List.filter (fun e -> Rooted_tree.covers t e te) non_tree)
               in
               if manual <> counts.(x) then ok := false
             end
           done;
           !ok));
    qcheck
      (QCheck.Test.make ~name:"the walker covers like a naive sweep, in any order"
         ~count:80
         (QCheck.pair (arb_connected ~max_n:40 ()) QCheck.bool)
         (fun (((seed, _, _) as params), path) ->
           let t =
             if path then path_shaped params
             else Rooted_tree.bfs_tree (graph_of_params params) ~root:0
           in
           let g = Rooted_tree.graph t in
           (* a random prefix of a random order of the non-tree edges *)
           let order =
             Array.of_list
               (List.filter
                  (fun e -> not (Rooted_tree.is_tree_edge t e))
                  (List.init (Graph.m g) Fun.id))
           in
           let rng = Rng.create ~seed:(seed + 1) in
           Rng.shuffle rng order;
           let order =
             Array.to_list
               (Array.sub order 0 (Rng.int rng (Array.length order + 1)))
           in
           (* the naive sweep: each edge of each path in turn keeps the
              first edge to reach it *)
           let naive = Array.make (Graph.n g) (-1) in
           List.iter
             (fun e ->
               List.iter
                 (fun te ->
                   let x = Rooted_tree.lower_endpoint t te in
                   if naive.(x) < 0 then naive.(x) <- e)
                 (Rooted_tree.fundamental_path t e))
             order;
           let w = Rooted_tree.walker t in
           List.iter (Rooted_tree.cover_path w) order;
           Array.for_all Fun.id
             (Array.mapi (fun x e -> Rooted_tree.covered_by w x = e) naive)));
    qcheck
      (QCheck.Test.make ~name:"ancestor_at_depth inverts depth" ~count:40
         (arb_connected ~max_n:20 ()) (fun params ->
           let g = graph_of_params params in
           let t = Rooted_tree.bfs_tree g ~root:0 in
           let ok = ref true in
           for v = 0 to Graph.n g - 1 do
             for d = 0 to Rooted_tree.depth t v do
               let a = Rooted_tree.ancestor_at_depth t v d in
               if Rooted_tree.depth t a <> d || not (Rooted_tree.is_ancestor t a v)
               then ok := false
             done
           done;
           !ok));
  ]

let () =
  Alcotest.run "graph"
    [
      ("rng", rng_tests);
      ("union_find", union_find_tests);
      ("heap", heap_tests);
      ("bitset", bitset_tests);
      ("graph", graph_tests);
      ("generators", gen_tests);
      ("weights", weight_tests);
      ("io", io_tests);
      ("binary_io", binary_io_tests);
      ("csr", csr_tests);
      ("rooted_tree", tree_tests);
    ]
