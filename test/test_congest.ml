open Kecss_graph
open Kecss_congest
open Common

let ledger () = Rounds.create ()

(* ---------- engine semantics ---------- *)

let engine_tests =
  [
    case "quiescence of a silent program" (fun () ->
        let g = Gen.path 4 in
        let p =
          { Network.init = (fun _ -> ()); step = (fun ~round:_ _ () _ _ -> `Idle) }
        in
        let _, rounds = Network.run g p in
        check_int "no rounds" 0 rounds);
    case "one ping counts one round" (fun () ->
        let g = Gen.path 2 in
        let p =
          {
            Network.init = (fun _ -> ());
            step =
              (fun ~round v () _ out ->
                if round = 0 && v = 0 then Network.post1 out ~edge:0 42;
                `Idle);
          }
        in
        let _, rounds = Network.run g p in
        check_int "one round" 1 rounds);
    case "oversized message rejected" (fun () ->
        let g = Gen.path 2 in
        let p =
          {
            Network.init = (fun _ -> ());
            step =
              (fun ~round v () _ out ->
                if round = 0 && v = 0 then
                  Network.post out ~edge:0 (Array.make (Network.cap_words + 1) 0);
                `Idle);
          }
        in
        (match Network.run g p with
        | exception Network.Message_too_large { vertex; words } ->
          check_int "offending vertex" 0 vertex;
          check_int "reported size" (Network.cap_words + 1) words
        | _ -> Alcotest.fail "expected Message_too_large"));
    case "duplicate send rejected" (fun () ->
        let g = Gen.path 2 in
        let p =
          {
            Network.init = (fun _ -> ());
            step =
              (fun ~round v () _ out ->
                if round = 0 && v = 0 then begin
                  Network.post1 out ~edge:0 1;
                  Network.post1 out ~edge:0 2
                end;
                `Idle);
          }
        in
        (match Network.run g p with
        | exception Network.Duplicate_send { vertex; edge } ->
          check_int "offending vertex" 0 vertex;
          check_int "contested edge" 0 edge
        | _ -> Alcotest.fail "expected Duplicate_send"));
    case "non-quiescing program detected" (fun () ->
        let g = Gen.path 2 in
        let p =
          { Network.init = (fun _ -> ()); step = (fun ~round:_ _ () _ _ -> `Active) }
        in
        (match Network.run ~max_rounds:50 g p with
        | exception Network.Did_not_quiesce { rounds; active; in_flight } ->
          check_int "gave up at max_rounds" 50 rounds;
          check_int "both vertices still active" 2 active;
          check_int "no stuck messages" 0 in_flight
        | _ -> Alcotest.fail "expected Did_not_quiesce"));
    case "livelocked wave reported via in_flight" (fun () ->
        (* two vertices forever bouncing a token: every pass has a message
           in flight, so the stuck-state diagnosis must show it *)
        let g = Gen.path 2 in
        let p =
          {
            Network.init = (fun v -> v = 0);
            step =
              (fun ~round v has inbox out ->
                if (round = 0 && has) || not (Network.Mail.is_empty inbox) then
                  Network.post1 out ~edge:0 v;
                `Idle);
          }
        in
        (match Network.run ~max_rounds:30 g p with
        | exception Network.Did_not_quiesce { rounds; active; in_flight } ->
          check_int "gave up at max_rounds" 30 rounds;
          check_int "all idle" 0 active;
          check_int "token in flight" 1 in_flight
        | _ -> Alcotest.fail "expected Did_not_quiesce"));
    case "the engine allocates nothing per message" (fun () ->
        (* three passes of one word on every edge, both ways: 6m messages *)
        let n = 4096 in
        let g = Gen.circulant n [ 1; 2 ] in
        let p =
          {
            Network.init = (fun _ -> ());
            step =
              (fun ~round v () _ out ->
                if round < 3 then
                  for i = 0 to Graph.degree g v - 1 do
                    Network.post1 out ~edge:(Graph.adj_eid_at g v i) v
                  done;
                if round < 2 then `Active else `Idle);
          }
        in
        (* the warm-up run grows this domain's message arenas from empty *)
        Network.release_arenas ();
        ignore (Network.run g p);
        Gc.full_major ();
        let a0 = Kecss_obs.Prof.allocated_words () in
        let _, rounds, messages = Network.run_counted g p in
        Gc.full_major ();
        let words = Kecss_obs.Prof.allocated_words () -. a0 in
        check_int "three rounds" 3 rounds;
        check_int "6m messages" (6 * Graph.m g) messages;
        check_is
          (Printf.sprintf "%.0f words allocated, under 16n = %d" words (16 * n))
          (words < float_of_int (16 * n));
        (* off the heap, the arenas hold the largest pass (2m one-word
           messages) in each of two arenas: six words per slot and one
           payload word, at most doubled by their growth *)
        let bound = 2 * 2 * (6 + 1) * (2 * Graph.m g) in
        let arena = Network.arena_words () in
        check_is
          (Printf.sprintf "%d arena words, at most %d" arena bound)
          (arena >= (6 + 1) * (2 * Graph.m g) && arena <= bound));
    case "a run inside a step leaves the outer run's mail alone" (fun () ->
        (* vertex 0 sends 7 to vertex 1; before reading it, vertex 1 runs
           an engine run of its own that sends on every edge *)
        let g = Gen.path 3 and inner_g = Gen.cycle 8 in
        let inner =
          {
            Network.init = (fun _ -> ());
            step =
              (fun ~round v () _ out ->
                if round = 0 then
                  for i = 0 to Graph.degree inner_g v - 1 do
                    Network.post1 out ~edge:(Graph.adj_eid_at inner_g v i) 99
                  done;
                `Idle);
          }
        in
        let outer =
          {
            Network.init = (fun _ -> ref []);
            step =
              (fun ~round v got inbox out ->
                if round = 0 && v = 0 then Network.post1 out ~edge:0 7;
                if not (Network.Mail.is_empty inbox) then begin
                  let _, inner_rounds = Network.run inner_g inner in
                  check_int "inner rounds" 1 inner_rounds;
                  got := List.map (fun (_, p) -> p.(0)) (Network.Mail.to_inbox inbox)
                end;
                `Idle);
          }
        in
        let states, _ = Network.run g outer in
        Alcotest.(check (list int)) "outer mail" [ 7 ] !(states.(1)));
    case "a recording profiler times both engine passes" (fun () ->
        let g = Gen.path 3 in
        let p =
          {
            Network.init = (fun _ -> ());
            step =
              (fun ~round v () _ out ->
                if round = 0 && v = 0 then begin
                  (* a collection inside a pass, which a span reading
                     Gc.quick_stat would count *)
                  Gc.minor ();
                  Network.post1 out ~edge:0 1
                end;
                `Idle);
          }
        in
        let prof = Kecss_obs.Prof.create () in
        ignore (Network.run_counted ~probe:(Kecss_obs.Probe.create ~prof ()) g p);
        (* one pass sends, the next only delivers *)
        Alcotest.(check (list (pair string int)))
          "spans and calls"
          [ ("engine/deliver", 2); ("engine/step", 2) ]
          (List.map
             (fun s -> (s.Kecss_obs.Prof.name, s.Kecss_obs.Prof.calls))
             (Kecss_obs.Prof.stats prof));
        (* a pass reads the clock and the minor-words pointer only, not
           Gc.quick_stat, so it counts no promoted words or collections *)
        List.iter
          (fun s ->
            let gc = s.Kecss_obs.Prof.gc in
            check_is s.Kecss_obs.Prof.name
              (gc.Kecss_obs.Prof.promoted_words = 0.0
              && gc.Kecss_obs.Prof.major_collections = 0
              && gc.Kecss_obs.Prof.minor_collections = 0))
          (Kecss_obs.Prof.stats prof));
  ]

(* ---------- primitives ---------- *)

let prim_tests =
  [
    case "bfs_tree distances and rounds" (fun () ->
        List.iter
          (fun (_, g) ->
            let l = ledger () in
            let t = Prim.bfs_tree l g ~root:0 in
            let d = Graph.bfs g 0 in
            for v = 0 to Graph.n g - 1 do
              check_int "bfs depth" d.(v) (Rooted_tree.depth t v)
            done;
            let ecc = Graph.eccentricity g 0 in
            check_is "rounds ~ ecc"
              (Rounds.total l >= ecc && Rounds.total l <= ecc + 1))
          (connected_pool ()));
    case "bfs_tree refuses a disconnected graph before any round" (fun () ->
        let g = Graph.make ~n:4 [ (0, 1, 1); (2, 3, 1) ] in
        let l = ledger () in
        (match Prim.bfs_tree l g ~root:0 with
        | exception Invalid_argument msg ->
          Alcotest.(check string)
            "named error" "Prim.bfs_tree: disconnected graph" msg
        | _ -> Alcotest.fail "expected Invalid_argument");
        check_int "no rounds charged" 0 (Rounds.total l);
        check_int "no messages charged" 0 (Rounds.total_messages l));
    case "exchange delivers to both endpoints in one round" (fun () ->
        let g = Gen.cycle 5 in
        let l = ledger () in
        let inboxes =
          Prim.exchange l g (fun v ->
              List.init (Graph.degree g v) (fun i ->
                  { Network.edge = Graph.adj_eid_at g v i; payload = [| v |] }))
        in
        check_int "one round" 1 (Rounds.total l);
        Array.iteri
          (fun v inbox ->
            check_int "degree messages" (Graph.degree g v) (List.length inbox);
            List.iter
              (fun (eid, payload) ->
                check_int "sender is the other end" (Graph.other_end g eid v)
                  payload.(0))
              inbox)
          inboxes);
    case "the in-place exchange reads what exchange's lists return" (fun () ->
        (* payloads of 0 to cap words on every edge; under the fault plan
           copies come twice and late, each pass's mail in its own read *)
        let g = Gen.random_k_connected (Rng.create ~seed:9) 48 2 ~extra:48 in
        let sends v =
          List.init (Graph.degree g v) (fun i ->
              let e = Graph.adj_eid_at g v i in
              {
                Network.edge = e;
                payload =
                  Array.init ((v + i) mod (Network.cap_words + 1)) (fun j ->
                      (v * 1000) + (e * 10) + j);
              })
        in
        let on faults =
          Rounds.create
            ?hook:
              (Option.map
                 (fun spec ->
                   Kecss_faults.Net.hook
                     (Kecss_faults.Net.injector
                        (Result.get_ok (Kecss_faults.Plan.of_spec spec))))
                 faults)
            ()
        in
        List.iter
          (fun faults ->
            let lists = Prim.exchange (on faults) g sends in
            (* every read, message by message in chain order, as
               (vertex, pass, edge, payload) *)
            let reads = ref [] and pass = Array.make (Graph.n g) 0 in
            Prim.exchange_in_place (on faults) g
              ~post:(fun v out ->
                List.iter
                  (fun { Network.edge; payload } -> Network.post out ~edge payload)
                  (sends v))
              ~read:(fun v mail ->
                pass.(v) <- pass.(v) + 1;
                let m = ref (Network.Mail.first mail) in
                while !m >= 0 do
                  reads :=
                    ( v,
                      pass.(v),
                      Network.Mail.edge mail !m,
                      Array.init (Network.Mail.length mail !m)
                        (Network.Mail.word mail !m) )
                    :: !reads;
                  m := Network.Mail.next mail !m
                done);
            let reads = List.rev !reads in
            Array.iteri
              (fun v inbox ->
                (* the list puts each pass's mail ahead of the earlier
                   passes' *)
                let mine =
                  List.filter (fun (u, _, _, _) -> u = v) reads
                  |> List.stable_sort (fun (_, p, _, _) (_, q, _, _) -> compare q p)
                  |> List.map (fun (_, _, e, w) -> (e, w))
                in
                Alcotest.(check (list (pair int (array int))))
                  (Printf.sprintf "vertex %d" v)
                  inbox mine)
              lists;
            check_int "every message read once or more"
              (List.length reads)
              (Array.fold_left (fun acc l -> acc + List.length l) 0 lists);
            if faults <> None then
              check_is "some vertex read more than one pass"
                (Array.exists (fun p -> p > 1) pass))
          [ None; Some "dup=0.2,delay=0.1:2,seed=4" ]);
    case "wave_up computes subtree sizes in height rounds" (fun () ->
        let g = Gen.caterpillar 6 2 in
        let t = Rooted_tree.bfs_tree g ~root:0 in
        let f = Forest.of_rooted_tree t in
        let l = ledger () in
        let sizes =
          Prim.wave_up l f ~value:(fun _ kids ->
              [| List.fold_left (fun acc k -> acc + k.(0)) 1 kids |])
        in
        check_int "root sees n" (Graph.n g) sizes.(0).(0);
        check_int "rounds = height" (Rooted_tree.height t) (Rounds.total l));
    case "wave_down distributes depths" (fun () ->
        let g = Gen.random_connected (Rng.create ~seed:5) 30 0.1 in
        let t = Rooted_tree.bfs_tree g ~root:0 in
        let f = Forest.of_rooted_tree t in
        let l = ledger () in
        let vals =
          Prim.wave_down l f
            ~root_value:(fun _ -> [| 0 |])
            ~derive:(fun _ ~parent_value -> [| parent_value.(0) + 1 |])
        in
        for v = 0 to Graph.n g - 1 do
          check_int "depth" (Rooted_tree.depth t v) vals.(v).(0)
        done;
        check_int "rounds = height" (Rooted_tree.height t) (Rounds.total l));
    case "down_pipeline delivers ancestors nearest-first" (fun () ->
        let g = Gen.path 6 in
        let t = Rooted_tree.bfs_tree g ~root:0 in
        let f = Forest.of_rooted_tree t in
        let l = ledger () in
        let got = Prim.down_pipeline l f ~emit:(fun v -> [ [| v * 10 |] ]) in
        Alcotest.(check (list (pair int int)))
          "vertex 5 inbox"
          [ (4, 40); (3, 30); (2, 20); (1, 10); (0, 0) ]
          (List.map (fun (o, p) -> (o, p.(0))) got.(5));
        check_int "vertex 0 got nothing" 0 (List.length got.(0));
        check_is "pipelined rounds" (Rounds.total l <= 5 + 5));
    case "broadcast_list reaches everyone" (fun () ->
        let g = Gen.random_connected (Rng.create ~seed:6) 25 0.12 in
        let t = Rooted_tree.bfs_tree g ~root:0 in
        let f = Forest.of_rooted_tree t in
        let l = ledger () in
        let items _ = List.init 7 (fun i -> [| 100 + i |]) in
        let got = Prim.broadcast_list l f ~items in
        Array.iter
          (fun lst ->
            Alcotest.(check (list int))
              "payloads"
              (List.init 7 (fun i -> 100 + i))
              (List.map (fun (_, p) -> p.(0)) lst))
          got;
        check_is "rounds <= height + items + 1"
          (Rounds.total l <= Rooted_tree.height t + 7 + 1));
    case "walk_up costs the source depth" (fun () ->
        let g = Gen.path 8 in
        let t = Rooted_tree.bfs_tree g ~root:0 in
        let f = Forest.of_rooted_tree t in
        let l = ledger () in
        Prim.walk_up l f ~sources:[ 7; 3 ];
        check_int "depth of deepest source" 7 (Rounds.total l));
    case "edge_stream costs the longest stream" (fun () ->
        let g = Gen.cycle 6 in
        let l = ledger () in
        Prim.edge_stream l g ~lengths:(fun e -> if e = 0 then 9 else 2);
        check_int "max length" 9 (Rounds.total l));
    case "up_pipeline_merge merges sorted keyed streams" (fun () ->
        let g = Gen.path 5 in
        let t = Rooted_tree.bfs_tree g ~root:0 in
        let f = Forest.of_rooted_tree t in
        let l = ledger () in
        let emit v = [ (v, [| v |]); (v + 10, [| v |]) ] in
        let combine a b = [| min a.(0) b.(0) |] in
        let res = Prim.up_pipeline_merge l f ~emit ~combine in
        let expected =
          List.init 5 (fun v -> (v, v)) @ List.init 5 (fun v -> (v + 10, v))
          |> List.sort compare
        in
        Alcotest.(check (list (pair int int)))
          "merged" expected
          (List.map (fun (k, p) -> (k, p.(0))) res.(0)));
    case "up_pipeline_merge combines duplicate keys" (fun () ->
        let g = Gen.star 6 in
        let t = Rooted_tree.bfs_tree g ~root:0 in
        let f = Forest.of_rooted_tree t in
        let l = ledger () in
        let emit v = if v = 0 then [] else [ (7, [| v |]) ] in
        let combine a b = [| min a.(0) b.(0) |] in
        let res = Prim.up_pipeline_merge l f ~emit ~combine in
        Alcotest.(check (list (pair int int)))
          "min wins" [ (7, 1) ]
          (List.map (fun (k, p) -> (k, p.(0))) res.(0)));
    case "up_pipeline_merge rejects unsorted emissions" (fun () ->
        let g = Gen.path 2 in
        let t = Rooted_tree.bfs_tree g ~root:0 in
        let f = Forest.of_rooted_tree t in
        (match
           Prim.up_pipeline_merge (ledger ()) f
             ~emit:(fun _ -> [ (3, [| 0 |]); (1, [| 0 |]) ])
             ~combine:(fun a _ -> a)
         with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument"));
    qcheck
      (QCheck.Test.make ~name:"up_pipeline_merge equals reference merge"
         ~count:40 (arb_connected ~max_n:16 ()) (fun params ->
           let g = graph_of_params params in
           let t = Rooted_tree.bfs_tree g ~root:0 in
           let f = Forest.of_rooted_tree t in
           let emit v = [ (v mod 5, [| v |]) ] in
           let combine a b = [| min a.(0) b.(0) |] in
           let res = Prim.up_pipeline_merge (ledger ()) f ~emit ~combine in
           let reference = Hashtbl.create 8 in
           for v = 0 to Graph.n g - 1 do
             let k = v mod 5 in
             let cur = Option.value ~default:max_int (Hashtbl.find_opt reference k) in
             Hashtbl.replace reference k (min cur v)
           done;
           let expected =
             Hashtbl.fold (fun k v acc -> (k, v) :: acc) reference []
             |> List.sort compare
           in
           List.map (fun (k, p) -> (k, p.(0))) res.(0) = expected));
  ]

(* ---------- forests ---------- *)

let forest_tests =
  [
    case "singleton forest" (fun () ->
        let g = Gen.cycle 5 in
        let f = Forest.singleton g in
        check_int "all roots" 5 (List.length f.Forest.roots);
        check_int "max depth" 0 (Forest.max_depth f));
    case "forest of a two-tree mask" (fun () ->
        let g = Gen.path 6 in
        let pe = Array.make 6 (-1) in
        for v = 1 to 5 do
          if v <> 3 then pe.(v) <- v - 1
        done;
        let f = Forest.make g ~parent_edge:pe in
        check_int "two roots" 2 (List.length f.Forest.roots);
        check_int "root_of 5" 3 f.Forest.root_of.(5);
        check_int "depth 5" 2 f.Forest.depth.(5);
        Alcotest.(check (list int)) "members" [ 3; 4; 5 ] (Forest.tree_members f 3));
    case "cycle in parents rejected" (fun () ->
        let g = Gen.cycle 3 in
        (match Forest.make g ~parent_edge:[| 0; 1; 2 |] with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument"));
  ]

(* ---------- distributed MST ---------- *)

let kruskal_weight g =
  let edges = Array.init (Graph.m g) (Graph.edge g) in
  Array.sort (fun a b -> compare (a.Graph.w, a.Graph.id) (b.Graph.w, b.Graph.id)) edges;
  let uf = Union_find.create (Graph.n g) in
  Array.fold_left
    (fun acc e ->
      if Union_find.union uf e.Graph.u e.Graph.v then acc + e.Graph.w else acc)
    0 edges

let mst_tests =
  [
    case "matches Kruskal on the pool" (fun () ->
        let rng = Rng.create ~seed:42 in
        List.iter
          (fun (name, g) ->
            let g = Weights.uniform rng ~lo:1 ~hi:100 g in
            let l = ledger () in
            let r = Mst.run l (Rng.split rng) g in
            check_int (name ^ " weight") (kruskal_weight g)
              (Graph.mask_weight g r.Mst.mask);
            check_int (name ^ " edges") (Graph.n g - 1) (Bitset.cardinal r.Mst.mask);
            check_is (name ^ " spanning")
              (Graph.is_connected ~mask:r.Mst.mask g))
          (connected_pool ()));
    case "fragment structure is sane" (fun () ->
        let rng = Rng.create ~seed:43 in
        let g =
          Weights.uniform rng ~lo:1 ~hi:1000
            (Gen.random_k_connected rng 144 2 ~extra:180)
        in
        let r = Mst.run (ledger ()) (Rng.split rng) g in
        check_is "few fragments" (r.Mst.fragment_count <= 24);
        check_int "global edges join fragments"
          (r.Mst.fragment_count - 1)
          (List.length r.Mst.global_edges);
        List.iter
          (fun e ->
            let u, v = Graph.endpoints g e in
            check_is "crosses fragments"
              (r.Mst.fragment_id.(u) <> r.Mst.fragment_id.(v)))
          r.Mst.global_edges;
        let frag_mask = Bitset.copy r.Mst.mask in
        List.iter (Bitset.remove frag_mask) r.Mst.global_edges;
        let comp = Graph.components ~mask:frag_mask g in
        for u = 0 to Graph.n g - 1 do
          for v = u + 1 to Graph.n g - 1 do
            if r.Mst.fragment_id.(u) = r.Mst.fragment_id.(v) then
              check_is "fragment connected" (comp.(u) = comp.(v))
          done
        done);
    qcheck
      (QCheck.Test.make ~name:"distributed MST = Kruskal (random)" ~count:25
         QCheck.(pair (int_bound 100_000) (int_range 4 40))
         (fun (seed, n) ->
           let rng = Rng.create ~seed in
           let g =
             Weights.uniform rng ~lo:1 ~hi:50 (Gen.random_connected rng n 0.15)
           in
           let r = Mst.run (ledger ()) (Rng.split rng) g in
           Graph.mask_weight g r.Mst.mask = kruskal_weight g));
    slow_case "rounds scale sanely" (fun () ->
        let rng = Rng.create ~seed:44 in
        let rounds_for n =
          let g =
            Weights.uniform rng ~lo:1 ~hi:1000
              (Gen.random_k_connected rng n 2 ~extra:(2 * n))
          in
          let l = ledger () in
          ignore (Mst.run l (Rng.split rng) g);
          Rounds.total l
        in
        let r64 = rounds_for 64 and r256 = rounds_for 256 in
        check_is "sublinear growth" (r256 < 4 * r64));
  ]

let () =
  Alcotest.run "congest"
    [
      ("engine", engine_tests);
      ("primitives", prim_tests);
      ("forest", forest_tests);
      ("mst", mst_tests);
    ]
