(* The CONGEST simulator as a library: write your own distributed
   algorithm against the message-level engine and the primitives.

   This example implements two classics from scratch — flooding leader
   election and distributed bipartiteness testing by 2-coloring a BFS
   tree — then reuses the library's primitives for a pipelined sum.

     dune exec examples/congest_playground.exe *)

open Kecss_graph
open Kecss_congest

(* --- 1. leader election by max-id flooding, directly on the engine --- *)

type elect = { mutable best : int }

let leader_election g =
  let program =
    {
      Network.init = (fun v -> { best = v });
      step =
        (fun ~round v st inbox out ->
          let before = st.best in
          (* walk the mail in place: first message, then each next one *)
          let m = ref (Network.Mail.first inbox) in
          while !m >= 0 do
            st.best <- max st.best (Network.Mail.word inbox !m 0);
            m := Network.Mail.next inbox !m
          done;
          let changed = st.best > before || round = 0 in
          (* a vertex names its links by port, its index into its own
             adjacency row *)
          if changed then
            for i = 0 to Graph.degree g v - 1 do
              Network.post1_port out ~port:i st.best
            done;
          `Idle);
    }
  in
  let states, rounds, _messages = Network.run_counted g program in
  (states.(0).best, rounds)

(* --- 2. bipartiteness: 2-color the BFS tree, then one exchange  --- *)

let bipartite ledger g =
  let tree = Prim.bfs_tree ledger g ~root:0 in
  let forest = Forest.of_rooted_tree tree in
  let colors =
    Prim.wave_down ledger forest
      ~root_value:(fun _ -> [| 0 |])
      ~derive:(fun _ ~parent_value -> [| 1 - parent_value.(0) |])
  in
  let ok = ref true in
  Prim.exchange_in_place ledger g
    ~post:(fun v out ->
      for i = 0 to Graph.degree g v - 1 do
        Network.post_port out ~port:i colors.(v)
      done)
    ~read:(fun v mail ->
      let m = ref (Network.Mail.first mail) in
      while !m >= 0 do
        if Network.Mail.word mail !m 0 = colors.(v).(0) then ok := false;
        m := Network.Mail.next mail !m
      done);
  !ok

let () =
  let show name g =
    let leader, rounds = leader_election g in
    let ledger = Rounds.create () in
    let bip = bipartite ledger g in
    Format.printf
      "%-12s n=%3d D=%2d | leader=%d in %d rounds | bipartite=%b in %d rounds@."
      name (Graph.n g) (Graph.diameter g) leader rounds bip
      (Rounds.total ledger)
  in
  show "cycle 16" (Gen.cycle 16);
  show "cycle 17" (Gen.cycle 17);
  show "hypercube 5" (Gen.hypercube 5);
  show "torus 6x6" (Gen.torus 6 6);
  show "grid 5x8" (Gen.grid 5 8);

  (* --- 3. pipelined aggregation with the library primitives --- *)
  let g = Gen.random_connected (Rng.create ~seed:1) 40 0.1 in
  let ledger = Rounds.create () in
  let tree = Prim.bfs_tree ledger g ~root:0 in
  let forest = Forest.of_rooted_tree tree in
  let totals =
    Prim.wave_up ledger forest ~value:(fun v kids ->
        [| List.fold_left (fun acc k -> acc + k.(0)) v kids |])
  in
  Format.printf "@.sum of ids over a random graph: %d (expect %d)@."
    totals.(0).(0)
    (40 * 39 / 2);
  Format.printf "round breakdown:@.%a@." Rounds.pp ledger
