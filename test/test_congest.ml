open Kecss_graph
open Kecss_congest
open Common

let ledger () = Rounds.create ()

(* word 0 of every message in [mail], in chain order *)
let first_words mail =
  let rec go m =
    if m < 0 then []
    else Network.Mail.word mail m 0 :: go (Network.Mail.next mail m)
  in
  go (Network.Mail.first mail)

(* ---------- engine semantics ---------- *)

let engine_tests =
  [
    case "quiescence of a silent program" (fun () ->
        let g = Gen.path 4 in
        let p =
          { Network.init = (fun _ -> ()); step = (fun ~round:_ _ () _ _ -> `Idle) }
        in
        let _, rounds, _ = Network.run_counted g p in
        check_int "no rounds" 0 rounds);
    case "one ping counts one round" (fun () ->
        let g = Gen.path 2 in
        let p =
          {
            Network.init = (fun _ -> ());
            step =
              (fun ~round v () _ out ->
                if round = 0 && v = 0 then Network.post1_port out ~port:0 42;
                `Idle);
          }
        in
        let _, rounds, _ = Network.run_counted g p in
        check_int "one round" 1 rounds);
    (* both checks raise at the post, so vertex 1 never steps in the
       offending pass *)
    case "oversized message rejected" (fun () ->
        let g = Gen.path 2 in
        let stepped = ref false in
        let p =
          {
            Network.init = (fun _ -> ());
            step =
              (fun ~round v () _ out ->
                if round = 0 && v = 0 then
                  Network.post_port out ~port:0
                    (Array.make (Network.cap_words + 1) 0);
                if v = 1 then stepped := true;
                `Idle);
          }
        in
        (match Network.run_counted g p with
        | exception Network.Message_too_large { vertex; words } ->
          check_int "offending vertex" 0 vertex;
          check_int "reported size" (Network.cap_words + 1) words
        | _ -> Alcotest.fail "expected Message_too_large");
        check_is "vertex 1 did not step" (not !stepped));
    case "duplicate send rejected" (fun () ->
        let g = Gen.path 2 in
        let stepped = ref false in
        let p =
          {
            Network.init = (fun _ -> ());
            step =
              (fun ~round v () _ out ->
                if round = 0 && v = 0 then begin
                  Network.post1_port out ~port:0 1;
                  Network.post1_port out ~port:0 2
                end;
                if v = 1 then stepped := true;
                `Idle);
          }
        in
        (match Network.run_counted g p with
        | exception Network.Duplicate_send { vertex; edge } ->
          check_int "offending vertex" 0 vertex;
          check_int "contested edge" 0 edge
        | _ -> Alcotest.fail "expected Duplicate_send");
        check_is "vertex 1 did not step" (not !stepped));
    case "non-quiescing program detected" (fun () ->
        let g = Gen.path 2 in
        let p =
          { Network.init = (fun _ -> ()); step = (fun ~round:_ _ () _ _ -> `Active) }
        in
        (match Network.run_counted ~max_rounds:50 g p with
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
                  Network.post1_port out ~port:0 v;
                `Idle);
          }
        in
        (match Network.run_counted ~max_rounds:30 g p with
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
                    Network.post1_port out ~port:i v
                  done;
                if round < 2 then `Active else `Idle);
          }
        in
        (* the warm-up run grows this domain's message arenas from empty *)
        Network.release_arenas ();
        ignore (Network.run_counted g p);
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
           messages) in each of two arenas: seven words per slot (edge,
           sender, destination, offset, length, chain link, causal id)
           and one payload word, at most doubled by their growth *)
        let bound = 2 * 2 * (7 + 1) * (2 * Graph.m g) in
        let arena = Network.arena_words () in
        check_is
          (Printf.sprintf "%d arena words, at most %d" arena bound)
          (arena >= (7 + 1) * (2 * Graph.m g) && arena <= bound));
    case "a port outside the sender's row is refused by name" (fun () ->
        (* vertex 1 of a path has ports 0 and 1 *)
        let g = Gen.path 3 in
        let posts =
          [
            ("post_port", fun out port -> Network.post_port out ~port [| 7 |]);
            ("post1_port", fun out port -> Network.post1_port out ~port 7);
            ( "post_sub_port",
              fun out port ->
                Network.post_sub_port out ~port [| 7; 8 |] ~pos:1 ~len:1 );
          ]
        in
        List.iter
          (fun (name, post) ->
            List.iter
              (fun port ->
                let p =
                  {
                    Network.init = (fun _ -> ());
                    step =
                      (fun ~round v () _ out ->
                        if round = 0 && v = 1 then post out port;
                        `Idle);
                  }
                in
                match Network.run_counted g p with
                | exception Invalid_argument msg ->
                  Alcotest.(check string)
                    (Printf.sprintf "%s on port %d" name port)
                    (Printf.sprintf
                       "Network: port %d outside [0, 2) at vertex 1" port)
                    msg
                | _ -> Alcotest.fail "expected Invalid_argument")
              [ -1; 2 ])
          posts;
        (* forwarding a received message on a bad port *)
        let p =
          {
            Network.init = (fun _ -> ());
            step =
              (fun ~round v () inbox out ->
                if round = 0 && v = 0 then Network.post1_port out ~port:0 5;
                if v = 1 && not (Network.Mail.is_empty inbox) then
                  Network.forward_port out ~port:2 inbox
                    (Network.Mail.first inbox);
                `Idle);
          }
        in
        match Network.run_counted g p with
        | exception Invalid_argument msg ->
          Alcotest.(check string)
            "forward_port" "Network: port 2 outside [0, 2) at vertex 1" msg
        | _ -> Alcotest.fail "expected Invalid_argument");
    case "an edge the sender does not touch is refused by name" (fun () ->
        (* on the path 0-1-2-3, edge 2 joins 2 and 3, and there is no
           edge 7 *)
        let g = Gen.path 4 in
        List.iter
          (fun edge ->
            match
              Prim.exchange (ledger ()) g (fun v ->
                  if v = 0 then [ { Network.edge; payload = [| 7 |] } ] else [])
            with
            | exception Invalid_argument msg ->
              Alcotest.(check string)
                (Printf.sprintf "edge %d" edge)
                (Printf.sprintf
                   "Prim.exchange: edge %d is not incident to vertex 0" edge)
                msg
            | () -> Alcotest.fail "expected Invalid_argument")
          [ 2; 7; -1 ]);
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
                    Network.post1_port out ~port:i 99
                  done;
                `Idle);
          }
        in
        let outer =
          {
            Network.init = (fun _ -> ref []);
            step =
              (fun ~round v got inbox out ->
                if round = 0 && v = 0 then Network.post1_port out ~port:0 7;
                if not (Network.Mail.is_empty inbox) then begin
                  let _, inner_rounds, _ = Network.run_counted inner_g inner in
                  check_int "inner rounds" 1 inner_rounds;
                  got := first_words inbox
                end;
                `Idle);
          }
        in
        let states, _, _ = Network.run_counted g outer in
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
                  Network.post1_port out ~port:0 1
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

(* ---------- waiting for mail ---------- *)

let empty_hook () =
  Kecss_faults.Net.hook (Kecss_faults.Net.injector Kecss_faults.Plan.empty)

(* [p] on [g] under [spec]: the final states, rounds and messages *)
let under ?probe spec g p =
  let plan = Result.get_ok (Kecss_faults.Plan.of_spec spec) in
  match Kecss_faults.Net.run_counted ?probe ~plan g p with
  | Kecss_faults.Net.Quiesced { states; rounds; messages; _ } ->
    (states, rounds, messages)
  | Kecss_faults.Net.Stalled _ -> Alcotest.fail (spec ^ ": stalled")

type waiter = { mutable steps : int; mutable got : int list }

(* on the path 0 - 1, vertex 0 stays [`Active] for three passes and
   sends 7 in the fourth; vertex 1 waits for it, counting its steps *)
let late_ping =
  {
    Network.init = (fun _ -> { steps = 0; got = [] });
    step =
      (fun ~round v st inbox out ->
        st.steps <- st.steps + 1;
        if v = 0 then
          if round < 3 then `Active
          else begin
            if round = 3 then Network.post1_port out ~port:0 7;
            `Idle
          end
        else begin
          st.got <- st.got @ first_words inbox;
          if st.got = [] then `Wait else `Idle
        end);
  }

let wait_tests =
  [
    case "a waiting vertex steps in round 0, then only when mail comes"
      (fun () ->
        let g = Gen.path 2 in
        let states, rounds, messages = Network.run_counted g late_ping in
        check_int "four rounds" 4 rounds;
        check_int "one message" 1 messages;
        check_int "vertex 1 stepped twice" 2 states.(1).steps;
        Alcotest.(check (list int)) "its mail" [ 7 ] states.(1).got;
        (* a hook changes nothing in that schedule *)
        let hooked, hooked_rounds, hooked_messages =
          Network.run_counted ~hook:(empty_hook ()) g late_ping
        in
        check_int "rounds under a hook" rounds hooked_rounds;
        check_int "messages under a hook" messages hooked_messages;
        check_int "stepped twice under a hook too" 2 hooked.(1).steps;
        Array.iteri
          (fun v st ->
            Alcotest.(check (list int))
              (Printf.sprintf "vertex %d's mail under a hook" v)
              st.got hooked.(v).got)
          states;
        check_int "vertex 0's steps" states.(0).steps hooked.(0).steps);
    case "a vertex that waits for mail that never comes is reported" (fun () ->
        let g = Gen.path 2 in
        let p =
          {
            Network.init = (fun _ -> ());
            step = (fun ~round:_ v () _ _ -> if v = 1 then `Wait else `Idle);
          }
        in
        List.iter
          (fun (name, hook) ->
            match Network.run_counted ?hook ~max_rounds:20 g p with
            | exception Network.Did_not_quiesce { rounds; active; in_flight } ->
              check_int (name ^ ": gave up at max_rounds") 20 rounds;
              check_int (name ^ ": the waiting vertex counts as active") 1
                active;
              check_int (name ^ ": nothing in flight") 0 in_flight
            | _ -> Alcotest.fail (name ^ ": expected Did_not_quiesce"))
          [ ("bare", None); ("hooked", Some (empty_hook ())) ]);
    case "a waiting vertex stops in the pass its crash activates" (fun () ->
        let flight = Kecss_obs.Flight.create () in
        let _, rounds, messages =
          under
            ~probe:(Kecss_obs.Probe.create ~flight ())
            "crash=v1@r2,seed=1" (Gen.path 2) late_ping
        in
        check_int "rounds" 4 rounds;
        check_int "messages" 1 messages;
        (* vertex 1 waits from pass 0 and is crash-stopped in pass 2, the
           pass its crash activates, not in pass 4, when vertex 0's
           message would first step it; it goes idle then, and the
           message is lost to it in pass 4 *)
        Alcotest.(check string)
          "flight dump"
          ({|{"schema":"kecss-flight/1","reason":"crash","engine_passes":5,|}
         ^ {|"window":32,"capacity":48,"stall":null,"vertices":[{"vertex":0,|}
         ^ {|"recorded":2,"entries":[{"round":3,"kind":"idle","edge":-1,|}
         ^ {|"word":0},{"round":3,"kind":"send","edge":0,"word":7}]},|}
         ^ {|{"vertex":1,"recorded":4,"entries":[{"round":2,"kind":"crash",|}
         ^ {|"edge":-1,"word":0},{"round":2,"kind":"idle","edge":-1,|}
         ^ {|"word":0},{"round":3,"kind":"recv","edge":0,"word":7},|}
         ^ {|{"round":4,"kind":"crash","edge":-1,"word":0}]}]}|})
          (Kecss_obs.Json.to_string
             (Kecss_obs.Flight.to_json ~reason:"crash" flight)));
    case "a crash of a vertex the graph lacks changes nothing" (fun () ->
        let g = Gen.path 2 in
        let outcome spec =
          let states, rounds, messages = under spec g late_ping in
          (Array.to_list (Array.map (fun st -> (st.steps, st.got)) states),
           rounds, messages)
        in
        let want = outcome "seed=1" in
        let result =
          Alcotest.(triple (list (pair int (list int))) int int)
        in
        Alcotest.check result "no effect" want (outcome "crash=v5@r1,seed=1");
        (* a larger run that raises leaves vertex 5 waiting, its active
           flag set in the domain's scratch; the crash must not read
           it *)
        let stuck =
          {
            Network.init = (fun _ -> ());
            step = (fun ~round:_ v () _ _ -> if v = 5 then `Wait else `Idle);
          }
        in
        (match Network.run_counted ~max_rounds:3 (Gen.path 8) stuck with
        | exception Network.Did_not_quiesce { active; _ } ->
          check_int "vertex 5 still waits" 1 active
        | _ -> Alcotest.fail "expected Did_not_quiesce");
        Alcotest.check result "after a raise" want
          (outcome "crash=v5@r1,seed=1"));
  ]

(* ---------- the per-domain scratch ---------- *)

(* every vertex posts its id on every port for [passes] passes and sums
   the words it receives *)
let flood g ~passes =
  {
    Network.init = (fun _ -> ref 0);
    step =
      (fun ~round v sum inbox out ->
        let m = ref (Network.Mail.first inbox) in
        while !m >= 0 do
          sum := !sum + Network.Mail.word inbox !m 0;
          m := Network.Mail.next inbox !m
        done;
        if round < passes then
          for i = 0 to Graph.degree g v - 1 do
            Network.post1_port out ~port:i v
          done;
        if round + 1 < passes then `Active else `Idle);
  }

let sums (states, rounds, messages) =
  (Array.to_list (Array.map ( ! ) states), rounds, messages)

(* what a domain that has never run the engine returns *)
let fresh f = Domain.join (Domain.spawn f)

let scratch_tests =
  [
    case "a run after one that raised returns what a fresh domain returns"
      (fun () ->
        let large = Gen.circulant 600 [ 1; 5 ] and small = Gen.cycle 9 in
        let run_large () = sums (Network.run_counted large (flood large ~passes:3))
        and run_small () = sums (Network.run_counted small (flood small ~passes:2)) in
        let want_large = fresh run_large and want_small = fresh run_small in
        (* flooding past the pass limit leaves mail in every chain *)
        (match Network.run_counted ~max_rounds:2 large (flood large ~passes:5) with
        | exception Network.Did_not_quiesce { in_flight; _ } ->
          check_int "mail left in flight" (2 * Graph.m large) in_flight
        | _ -> Alcotest.fail "expected Did_not_quiesce");
        let result = Alcotest.(triple (list int) int int) in
        Alcotest.check result "small graph after the raise" want_small
          (run_small ());
        Alcotest.check result "large graph after that" want_large
          (run_large ());
        Alcotest.check result "large graph once more" want_large
          (run_large ()));
    case "a nested run refuses its own duplicates and spares the outer run's"
      (fun () ->
        let g = Gen.path 3 and inner_g = Gen.cycle 8 in
        let dup =
          {
            Network.init = (fun _ -> ());
            step =
              (fun ~round v () _ out ->
                if round = 0 then begin
                  Network.post1_port out ~port:0 1;
                  if v = 5 then Network.post1_port out ~port:0 2
                end;
                `Idle);
          }
        in
        let outer =
          {
            Network.init = (fun _ -> ref []);
            step =
              (fun ~round v got inbox out ->
                if round = 0 && v = 0 then Network.post1_port out ~port:0 7;
                if not (Network.Mail.is_empty inbox) then begin
                  (match Network.run_counted inner_g dup with
                  | exception Network.Duplicate_send { vertex; edge } ->
                    check_int "inner offender" 5 vertex;
                    check_int "inner edge" (Graph.adj_eid_at inner_g 5 0) edge
                  | _ -> Alcotest.fail "expected the inner Duplicate_send");
                  got := first_words inbox
                end;
                `Idle);
          }
        in
        let states, rounds, messages = Network.run_counted g outer in
        Alcotest.(check (list int)) "outer mail" [ 7 ] !(states.(1));
        check_int "outer rounds" 1 rounds;
        check_int "outer messages" 1 messages;
        (* vertex 1 posts on port 0, runs an honest inner run that posts
           on every port, then posts on port 0 again: the inner run's
           stamps must not hide the outer duplicate *)
        let honest =
          {
            Network.init = (fun _ -> ());
            step =
              (fun ~round v () _ out ->
                if round = 0 then
                  for i = 0 to Graph.degree inner_g v - 1 do
                    Network.post1_port out ~port:i 99
                  done;
                `Idle);
          }
        in
        let outer_dup =
          {
            Network.init = (fun _ -> ());
            step =
              (fun ~round v () _ out ->
                if round = 0 && v = 1 then begin
                  Network.post1_port out ~port:0 1;
                  ignore (Network.run_counted inner_g honest);
                  Network.post1_port out ~port:0 2
                end;
                `Idle);
          }
        in
        match Network.run_counted g outer_dup with
        | exception Network.Duplicate_send { vertex; edge } ->
          check_int "outer offender" 1 vertex;
          check_int "outer edge" (Graph.adj_eid_at g 1 0) edge
        | _ -> Alcotest.fail "expected the outer Duplicate_send");
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
        let inboxes = Array.make (Graph.n g) [] in
        Prim.exchange_in_place l g
          ~post:(fun v out ->
            for i = 0 to Graph.degree g v - 1 do
              Network.post_port out ~port:i [| v |]
            done)
          ~read:(fun v mail ->
            let m = ref (Network.Mail.first mail) in
            while !m >= 0 do
              inboxes.(v) <-
                (Network.Mail.edge mail !m, Network.Mail.word mail !m 0)
                :: inboxes.(v);
              m := Network.Mail.next mail !m
            done);
        check_int "one round" 1 (Rounds.total l);
        Array.iteri
          (fun v inbox ->
            check_int "degree messages" (Graph.degree g v) (List.length inbox);
            List.iter
              (fun (eid, sender) ->
                check_int "sender is the other end" (Graph.other_end g eid v)
                  sender)
              inbox)
          inboxes);
    case "exchange posts each send on the port of its edge" (fun () ->
        (* every vertex lists its sends in descending edge order; the
           flight rings, which record each send and delivery with its
           vertex and edge, must match a run that posts the same sends
           by port *)
        let g = Gen.random_k_connected (Rng.create ~seed:9) 48 2 ~extra:48 in
        let flown run =
          let flight = Kecss_obs.Flight.create () in
          let l = Rounds.create ~flight () in
          run l;
          check_int "2m messages" (2 * Graph.m g) (Rounds.total_messages l);
          Kecss_obs.Json.to_string
            (Kecss_obs.Flight.to_json ~reason:"exchange" flight)
        in
        let by_edge =
          flown (fun l ->
              Prim.exchange l g (fun v ->
                  Graph.fold_adj g v
                    (fun acc _ e -> { Network.edge = e; payload = [| v; e |] } :: acc)
                    []))
        in
        let by_port =
          flown (fun l ->
              Prim.exchange_in_place l g
                ~post:(fun v out ->
                  for i = Graph.degree g v - 1 downto 0 do
                    Network.post_port out ~port:i [| v; Graph.adj_eid_at g v i |]
                  done)
                ~read:(fun v mail ->
                  let m = ref (Network.Mail.first mail) in
                  while !m >= 0 do
                    let e = Network.Mail.edge mail !m in
                    check_int "sender" (Graph.other_end g e v)
                      (Network.Mail.word mail !m 0);
                    check_int "edge" e (Network.Mail.word mail !m 1);
                    m := Network.Mail.next mail !m
                  done))
        in
        Alcotest.(check string) "flight rings" by_port by_edge);
    case "exchange allocates nothing per send" (fun () ->
        (* the same n at degree 4 and at degree 12, with the sends built
           before the count: three times the sends, the same words *)
        let n = 2048 in
        let words offsets =
          let g = Gen.circulant n offsets in
          let sends =
            Array.init n (fun v ->
                List.init (Graph.degree g v) (fun i ->
                    { Network.edge = Graph.adj_eid_at g v i; payload = [| v |] }))
          in
          let run () = Prim.exchange (ledger ()) g (Array.get sends) in
          (* grows the arenas and the duplicate-send scratch *)
          run ();
          Gc.full_major ();
          let a0 = Kecss_obs.Prof.allocated_words () in
          run ();
          Kecss_obs.Prof.allocated_words () -. a0
        in
        let low = words [ 1; 2 ] and high = words [ 1; 2; 3; 4; 5; 6 ] in
        check_is
          (Printf.sprintf "%.0f words at degree 4, %.0f at degree 12" low high)
          (high -. low < float_of_int n));
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
    case "both waves finish under duplicated messages" (fun () ->
        (* a child's duplicated value counts once, and two copies of the
           parent's value are one value: each wave ends with the values
           of its fault-free run *)
        let g = Gen.random_k_connected (Rng.create ~seed:3) 64 2 ~extra:64 in
        let f = Forest.of_rooted_tree (Rooted_tree.bfs_tree g ~root:0) in
        let up l =
          Prim.wave_up l f ~value:(fun _ kids ->
              [| List.fold_left (fun acc k -> acc + k.(0)) 1 kids |])
        and down l =
          Prim.wave_down l f
            ~root_value:(fun _ -> [| 0 |])
            ~derive:(fun _ ~parent_value -> [| parent_value.(0) + 1 |])
        in
        List.iter
          (fun (name, wave) ->
            let plain = wave (ledger ()) in
            List.iter
              (fun spec ->
                let inj =
                  Kecss_faults.Net.injector
                    (Result.get_ok (Kecss_faults.Plan.of_spec spec))
                in
                let l = Rounds.create ~hook:(Kecss_faults.Net.hook inj) () in
                let label = Printf.sprintf "%s under %s" name spec in
                (match wave l with
                | values ->
                  Alcotest.(check (array (array int))) label plain values
                | exception Network.Did_not_quiesce _ ->
                  Alcotest.fail (label ^ " did not quiesce"));
                check_is (label ^ " duplicated a message")
                  ((Kecss_faults.Net.stats inj).Kecss_faults.Net.duplicated > 0))
              [ "dup=0.05,seed=1"; "dup=0.05,seed=2"; "dup=0.2,seed=3" ])
          [ ("wave_up", up); ("wave_down", down) ]);
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

(* ---------- every primitive, bare and under an empty plan ---------- *)

(* Runs every primitive once on [l] and prints what each returns. An
   empty plan's hook delivers every message and crashes no vertex, so
   the bare and the hooked ledgers must agree on all of it. *)
let all_primitives l g ~root =
  let n = Graph.n g in
  let b = Buffer.create 1024 in
  let add fmt = Printf.bprintf b fmt in
  let ints a = String.concat "," (List.map string_of_int (Array.to_list a)) in
  let lists a =
    String.concat ";"
      (Array.to_list
         (Array.map
            (fun l ->
              String.concat " "
                (List.map (fun (o, p) -> Printf.sprintf "%d:%s" o (ints p)) l))
            a))
  in
  let t = Prim.bfs_tree l g ~root in
  add "bfs %s\n" (ints (Rooted_tree.parent_edges t));
  let f = Forest.of_rooted_tree t in
  let heard = Array.make n 0 in
  Prim.exchange_in_place l g
    ~post:(fun v out ->
      for i = 0 to Graph.degree g v - 1 do
        Network.post1_port out ~port:i (v + 1)
      done)
    ~read:(fun v mail ->
      heard.(v) <- (31 * heard.(v)) + Network.Mail.word mail (Network.Mail.first mail) 0);
  add "exchange_in_place %s\n" (ints heard);
  Prim.exchange l g (fun v ->
      Graph.fold_adj g v
        (fun acc _ e -> { Network.edge = e; payload = [| v; e |] } :: acc)
        []);
  let sizes =
    Prim.wave_up l f ~value:(fun _ kids ->
        [| List.fold_left (fun acc k -> acc + k.(0)) 1 kids |])
  in
  add "wave_up %s\n" (ints (Array.map (fun a -> a.(0)) sizes));
  let depths =
    Prim.wave_down l f
      ~root_value:(fun _ -> [| 0 |])
      ~derive:(fun _ ~parent_value -> [| parent_value.(0) + 1 |])
  in
  add "wave_down %s\n" (ints (Array.map (fun a -> a.(0)) depths));
  add "down_pipeline %s\n"
    (lists
       (Prim.down_pipeline l f ~emit:(fun v ->
            if v mod 3 = 0 then [ [| v |]; [| v; 1 |] ] else [])));
  ignore (Prim.down_pipeline ~record:false l f ~emit:(fun v -> [ [| v |] ]));
  add "broadcast_list %s\n"
    (lists (Prim.broadcast_list l f ~items:(fun v -> [ [| v |]; [| 2 * v |] ])));
  Prim.edge_stream l g ~lengths:(fun e -> e mod 4);
  Prim.walk_up l f ~sources:(List.filter (fun v -> v mod 2 = 1) (List.init n Fun.id));
  add "up_pipeline_merge %s\n"
    (lists
       (Prim.up_pipeline_merge l f
          ~emit:(fun v -> [ (v mod 3, [| v |]); (3 + (v mod 5), [| v |]) ])
          ~combine:(fun a b -> [| min a.(0) b.(0) |])));
  Buffer.contents b

(* a path with [chords] random chords *)
let path_shaped (seed, n, chords) =
  let rng = Rng.create ~seed in
  let edges = Hashtbl.create 16 in
  for v = 0 to n - 2 do
    Hashtbl.replace edges (v, v + 1) ()
  done;
  for _ = 1 to chords do
    let u = Rng.int rng n and v = Rng.int rng n in
    if u <> v then Hashtbl.replace edges (min u v, max u v) ()
  done;
  Graph.make ~n
    (List.sort compare (Hashtbl.fold (fun (u, v) () acc -> (u, v, 1) :: acc) edges []))

let bare_equals_hooked g ~root =
  let ledger hook =
    let metrics = Kecss_obs.Metrics.create () in
    (Rounds.create ~metrics ?hook (), metrics)
  in
  let run hook =
    let l, metrics = ledger hook in
    let outputs = all_primitives l g ~root in
    ( outputs,
      Rounds.by_category l,
      Rounds.messages_by_category l,
      Kecss_obs.Json.to_string (Kecss_obs.Metrics.to_json metrics) )
  in
  run None = run (Some (empty_hook ()))

let hooked_tests =
  [
    qcheck
      (QCheck.Test.make
         ~name:"on random graphs, every primitive runs the same bare and \
                under an empty plan"
         ~count:40 (arb_connected ~max_n:40 ()) (fun params ->
           let g = graph_of_params params in
           let seed, n, _ = params in
           bare_equals_hooked g ~root:(seed mod n)));
    qcheck
      (QCheck.Test.make
         ~name:"on paths with chords, every primitive runs the same bare \
                and under an empty plan"
         ~count:40
         QCheck.(
           triple (int_bound 1_000_000) (int_range 2 60) (int_bound 4))
         (fun ((seed, n, _) as params) ->
           bare_equals_hooked (path_shaped params) ~root:(seed mod n)));
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
        check_int "depth 5" 2 f.Forest.depth.(5));
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
      ("wait", wait_tests);
      ("scratch", scratch_tests);
      ("primitives", prim_tests);
      ("hooked", hooked_tests);
      ("forest", forest_tests);
      ("mst", mst_tests);
    ]
