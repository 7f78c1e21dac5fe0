open Kecss_graph
open Kecss_congest

type result = {
  mask : Bitset.t;
  tree : Rooted_tree.t;
  swap : int array;
  rounds : int;
}

let build_with ledger rng g =
  Rounds.scoped ledger "ft_mst" @@ fun () ->
  let n = Graph.n g in
  let bfs = Prim.bfs_tree ledger g ~root:0 in
  let bfs_forest = Forest.of_rooted_tree bfs in
  let mst = Mst.run ledger (Rng.split rng) g in
  let segments = Segments.build ledger ~bfs_forest mst in
  let tree = mst.Mst.tree in
  (* charge the one-shot dissemination (the [14] pattern = one TAP-style
     pass): per-segment pipelines plus a keyed long-range aggregation *)
  let wf = Segments.wave_forest segments in
  ignore
    (Prim.down_pipeline ~record:false ledger wf ~emit:(fun v ->
         let pe = Rooted_tree.parent_edge tree v in
         if pe < 0 then [] else [ [| pe |] ]));
  let results =
    Prim.up_pipeline_merge ledger bfs_forest
      ~emit:(fun v ->
        let pe = Rooted_tree.parent_edge tree v in
        if pe >= 0 && Segments.on_highway segments pe then
          [ (Segments.seg_of_tree_edge segments pe, [| Graph.weight g pe |]) ]
        else [])
      ~combine:(fun a b -> [| min a.(0) b.(0) |])
  in
  let bfs_root = List.hd bfs_forest.Forest.roots in
  ignore
    (Prim.broadcast_list ~record:false ledger bfs_forest ~items:(fun _ ->
         List.map (fun (k, p) -> [| k; p.(0) |]) results.(bfs_root)));
  (* swap edges: sweep non-tree edges cheapest-first; the first edge to
     reach an uncovered tree edge is its swap (classic cycle property) *)
  let walker = Rooted_tree.walker tree in
  Graph.fold_edges
    (fun e acc ->
      if Rooted_tree.is_tree_edge tree e.Graph.id then acc else e :: acc)
    g []
  |> List.sort (fun a b -> compare (a.Graph.w, a.Graph.id) (b.Graph.w, b.Graph.id))
  |> List.iter (fun e -> Rooted_tree.cover_path walker e.Graph.id);
  let swap = Array.init n (Rooted_tree.covered_by walker) in
  let mask = Bitset.copy mst.Mst.mask in
  Array.iter (fun e -> if e >= 0 then Bitset.add mask e) swap;
  { mask; tree; swap; rounds = Rounds.total ledger }

let build ?(seed = 1) g = build_with (Rounds.create ()) (Rng.create ~seed) g
