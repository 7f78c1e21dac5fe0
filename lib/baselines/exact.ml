open Kecss_graph
open Kecss_connectivity

let min_subset g ~universe ~base ~feasible =
  (* heavy edges first: feasibility with the whole suffix fails sooner *)
  let order =
    List.sort
      (fun a b -> compare (Graph.weight g b, b) (Graph.weight g a, a))
      universe
    |> Array.of_list
  in
  let k = Array.length order in
  let suffix_weight = Array.make (k + 1) 0 in
  for i = k - 1 downto 0 do
    suffix_weight.(i) <- suffix_weight.(i + 1) + Graph.weight g order.(i)
  done;
  let best = ref None in
  let best_w = ref max_int in
  let chosen = Bitset.copy base in
  let rec go i w =
    if w < !best_w then
      if feasible chosen then begin
        best_w := w;
        let sol = Bitset.copy chosen in
        Bitset.diff_into sol base;
        best := Some sol
      end
      else if i < k then begin
        (* feasibility with everything remaining? otherwise dead branch *)
        let all_rest = Bitset.copy chosen in
        for j = i to k - 1 do
          Bitset.add all_rest order.(j)
        done;
        if feasible all_rest then begin
          (* include order.(i) *)
          Bitset.add chosen order.(i);
          go (i + 1) (w + Graph.weight g order.(i));
          Bitset.remove chosen order.(i);
          (* exclude order.(i) *)
          go (i + 1) w
        end
      end
  in
  go 0 0;
  !best

let kecss g ~k =
  if not (Edge_connectivity.is_k_edge_connected g k) then None
  else
    let universe = Graph.fold_edges (fun e acc -> e.Graph.id :: acc) g [] in
    let feasible mask = Edge_connectivity.is_k_edge_connected ~mask g k in
    min_subset g ~universe ~base:(Graph.no_edges_mask g) ~feasible

let tap g tree =
  let base = Rooted_tree.edges_mask tree in
  let universe =
    Graph.fold_edges
      (fun e acc ->
        if Rooted_tree.is_tree_edge tree e.Graph.id then acc else e.Graph.id :: acc)
      g []
  in
  let feasible mask = Dfs.is_two_edge_connected ~mask g in
  min_subset g ~universe ~base ~feasible
