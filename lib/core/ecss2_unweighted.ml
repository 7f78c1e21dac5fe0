open Kecss_graph
open Kecss_congest

type result = {
  h : Bitset.t;
  tree : Rooted_tree.t;
  augmentation : Bitset.t;
}

let solve_with ledger g =
  Rounds.scoped ledger "ecss2u" @@ fun () ->
  let n = Graph.n g in
  let tree = Prim.bfs_tree ledger g ~root:0 in
  let forest = Forest.of_rooted_tree tree in
  (* charge the O(D) communication: root paths down the tree, LCA-depth
     exchange across non-tree edges, and the two selection waves *)
  (* result unused: the pipeline is run for its round/message charge,
     [record:false] skips accumulating the received lists *)
  ignore
    (Prim.down_pipeline ~record:false ledger forest ~emit:(fun v ->
         let pe = Rooted_tree.parent_edge tree v in
         if pe < 0 then [] else [ [| pe |] ]));
  Prim.edge_stream ledger g ~lengths:(fun e ->
      if Rooted_tree.is_tree_edge tree e then 0
      else
        1
        + min
            (Rooted_tree.depth tree (Graph.edge_u g e))
            (Rooted_tree.depth tree (Graph.edge_v g e)));
  ignore (Prim.wave_up ledger forest ~value:(fun _ _ -> [| 0 |]));
  ignore
    (Prim.wave_down ledger forest
       ~root_value:(fun _ -> [| 0 |])
       ~derive:(fun _ ~parent_value -> parent_value));
  (* low(x): the shallowest LCA depth of a non-tree edge with an endpoint
     in subtree(x), with the witnessing edge *)
  let low_depth = Array.make n max_int in
  let low_edge = Array.make n (-1) in
  let improve x d e =
    if d < low_depth.(x) then begin
      low_depth.(x) <- d;
      low_edge.(x) <- e
    end
  in
  for e = 0 to Graph.m g - 1 do
    if not (Rooted_tree.is_tree_edge tree e) then begin
      let u = Graph.edge_u g e and v = Graph.edge_v g e in
      let a = Rooted_tree.lca tree u v in
      let d = Rooted_tree.depth tree a in
      improve u d e;
      improve v d e
    end
  done;
  let order = Rooted_tree.preorder tree in
  for i = n - 1 downto 0 do
    let x = order.(i) in
    if x <> 0 then begin
      let p = Rooted_tree.parent tree x in
      improve p low_depth.(x) low_edge.(x)
    end
  done;
  (* greedy cover, deepest tree edge first; the walker skips covered
     stretches *)
  let walker = Rooted_tree.walker tree in
  let aug = Graph.no_edges_mask g in
  let by_depth = Array.copy order in
  let depth = Rooted_tree.depths tree in
  Array.sort (fun a b -> compare depth.(b) depth.(a)) by_depth;
  Array.iter
    (fun x ->
      if x <> 0 && Rooted_tree.covered_by walker x < 0 then begin
        if low_edge.(x) < 0 || low_depth.(x) >= depth.(x) then
          failwith "Ecss2_unweighted: graph is not 2-edge-connected";
        Bitset.add aug low_edge.(x);
        Rooted_tree.cover_path walker low_edge.(x)
      end)
    by_depth;
  let h = Rooted_tree.edges_mask tree in
  Bitset.union_into h aug;
  { h; tree; augmentation = aug }

let solve g = solve_with (Rounds.create ()) g
