open Kecss_graph
open Kecss_congest

type config = { vote_divisor : int; max_iterations : int }

let default_config n =
  let l = max 1 (Cover.log2_ceil (n + 1)) in
  { vote_divisor = 8; max_iterations = (64 * l * l) + 200 }

type iteration_info = Cover.iteration = {
  index : int;
  level : Cost.level;
  candidates : int;
  added : int;
  uncovered_left : int;
}

type result = {
  augmentation : Bitset.t;
  iterations : int;
  trace : iteration_info list;
  cost_sum : float;
  forced : int;
}

(* ----- the real communication pattern of one iteration (§3.1) ----- *)

(* [covered v]: is the tree edge above vertex [v] covered? *)
let charge_iteration ledger ~bfs_forest segments ~covered =
  let tree = Segments.tree segments in
  let wf = Segments.wave_forest segments in
  (* Claim 3.2 dissemination: per-segment root-path pipeline carrying
     (tree edge, covered bit) *)
  ignore
    (Prim.down_pipeline ~record:false ledger wf ~emit:(fun v ->
         let pe = Rooted_tree.parent_edge tree v in
         if pe < 0 then []
         else [ [| pe; (if covered v then 1 else 0) |] ]));
  (* per-highway uncovered summaries, aggregated to the BFS root ... *)
  let results =
    Prim.up_pipeline_merge ledger bfs_forest
      ~emit:(fun v ->
        let pe = Rooted_tree.parent_edge tree v in
        if pe >= 0 && Segments.on_highway segments pe then
          [ (Segments.seg_of_tree_edge segments pe, [| (if covered v then 0 else 1) |]) ]
        else [])
      ~combine:(fun a b -> [| a.(0) + b.(0) |])
  in
  (* ... and pipeline-broadcast, together with the iteration's maximum
     rounded cost-effectiveness, to every vertex *)
  let bfs_root = List.hd bfs_forest.Forest.roots in
  let summary = results.(bfs_root) in
  ignore
    (Prim.broadcast_list ~record:false ledger bfs_forest ~items:(fun _ ->
         [| 0; 0 |] :: List.map (fun (k, p) -> [| k; p.(0) |]) summary));
  (* one round in which the endpoints of every candidate edge exchange
     their path knowledge summaries (cases 1–3 of the CE computation):
     one message per non-tree edge, from its smaller endpoint *)
  let g = Rooted_tree.graph tree in
  let off, nbr, eid = Graph.adjacency g in
  Prim.exchange_in_place ledger g ~post:(fun v out ->
      let lo = off.(v) in
      for k = lo to off.(v + 1) - 1 do
        if v < nbr.(k) && not (Rooted_tree.is_tree_edge tree eid.(k)) then
          Network.post1_port out ~port:(k - lo) 0
      done)

let charge_global_max ledger ~bfs_forest level =
  (* O(D): convergecast the maximum level, broadcast it back *)
  ignore
    (Prim.wave_up ledger bfs_forest ~value:(fun _ kids ->
         [| List.fold_left (fun acc k -> max acc k.(0)) 0 kids |]));
  ignore
    (Prim.wave_down ledger bfs_forest
       ~root_value:(fun _ -> [| Cost.to_payload level |])
       ~derive:(fun _ ~parent_value -> parent_value))

(* ----------------------------------------------------------------- *)

(* the elements are the tree edges: the one above vertex x is element x,
   less one past the root, which has none *)
let element tree x = if x > Rooted_tree.root tree then x - 1 else x

let problem tree =
  let g = Rooted_tree.graph tree in
  let n = Graph.n g and m = Graph.m g in
  let root = Rooted_tree.root tree in
  let depth = Rooted_tree.depths tree and parent = Rooted_tree.parents tree in
  (* flatten every fundamental path once into a CSR non-tree edge ->
     elements. The counting pass climbs from both ends, the deeper one
     first, until they meet at the LCA; the filling pass then walks each
     end up to the LCA's depth in turn *)
  let non_tree e = not (Rooted_tree.is_tree_edge tree e) in
  let lca_depth = Array.make m 0 in
  let walk e visit =
    let up x =
      let x = ref x in
      while Rooted_tree.depth tree !x > lca_depth.(e) do
        visit !x;
        x := Rooted_tree.parent tree !x
      done
    in
    up (Graph.edge_u g e);
    up (Graph.edge_v g e)
  in
  let path_off = Array.make (m + 1) 0 in
  let coverable = Array.make n false in
  (* the tree edge above [x] is on [e]'s path: count it, step up *)
  let count e x =
    coverable.(x) <- true;
    path_off.(e + 1) <- path_off.(e + 1) + 1;
    parent.(x)
  in
  for e = 0 to m - 1 do
    if non_tree e then begin
      let u = ref (Graph.edge_u g e) and v = ref (Graph.edge_v g e) in
      while !u <> !v do
        if depth.(!u) >= depth.(!v) then u := count e !u else v := count e !v
      done;
      lca_depth.(e) <- depth.(!u)
    end
  done;
  for x = 0 to n - 1 do
    if x <> root && not coverable.(x) then
      failwith "Tap.augment: graph is not 2-edge-connected (uncoverable edge)"
  done;
  for e = 0 to m - 1 do
    path_off.(e + 1) <- path_off.(e + 1) + path_off.(e)
  done;
  let path = Array.make (max 1 path_off.(m)) 0 in
  let fill = Array.copy path_off in
  for e = 0 to m - 1 do
    if non_tree e then
      walk e (fun x ->
          path.(fill.(e)) <- element tree x;
          fill.(e) <- fill.(e) + 1)
  done;
  {
    Cover.elements = n - 1;
    candidates = m;
    weight = Graph.weight g;
    covered_by =
      (fun e f ->
        for i = path_off.(e) to path_off.(e + 1) - 1 do
          f path.(i)
        done);
  }

let augment ?config ledger rng ~bfs_forest segments =
  Rounds.scoped ledger "tap" @@ fun () ->
  let tree = Segments.tree segments in
  let g = Rooted_tree.graph tree in
  let n = Graph.n g and m = Graph.m g in
  let config = match config with Some c -> c | None -> default_config n in
  if config.vote_divisor < 1 then invalid_arg "Tap: vote_divisor must be >= 1";
  let problem = problem tree in
  (* §3: all weight-0 edges join A up front; their paths are covered *)
  let free = Graph.no_edges_mask g in
  for e = 0 to m - 1 do
    if (not (Rooted_tree.is_tree_edge tree e)) && Graph.weight g e = 0 then
      Bitset.add free e
  done;
  let charge st = function
    | Cover.Agreed level -> charge_global_max ledger ~bfs_forest level
    | Cover.Start | Cover.Committed _ ->
      charge_iteration ledger ~bfs_forest segments ~covered:(fun v ->
          Cover.covered st (element tree v))
  in
  let r =
    Cover.solve ~trace:(Rounds.trace ledger) ~algo:"tap" ~size:n
      ~max_iterations:config.max_iterations ~initial:free ~charge rng problem
      (Cover.Voting { divisor = config.vote_divisor })
  in
  {
    augmentation = r.Cover.chosen;
    iterations = r.Cover.iterations;
    trace = r.Cover.log;
    cost_sum = r.Cover.cost_sum;
    forced = r.Cover.forced;
  }
