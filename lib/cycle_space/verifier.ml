open Kecss_graph
open Kecss_congest

let prepare ?mask ledger g =
  let mask = match mask with Some s -> Bitset.copy s | None -> Graph.all_edges_mask g in
  if not (Graph.is_connected ~mask g) then None
  else begin
    (* a BFS tree of the subgraph; building it is itself distributed *)
    let dist, pe = Graph.bfs_tree ~mask g 0 in
    let ecc = Array.fold_left max 0 dist in
    Rounds.charge ledger ~category:"verifier_bfs" ecc;
    let tree = Rooted_tree.of_parent_edges g ~root:0 pe in
    Some (tree, Forest.of_rooted_tree tree, mask)
  end

(* the verdict travels to the root and back: two O(D) waves *)
let agree ledger forest verdict =
  ignore
    (Prim.wave_up ledger forest ~value:(fun _ kids ->
         [| List.fold_left (fun acc k -> min acc k.(0)) 1 kids |]));
  ignore
    (Prim.wave_down ledger forest
       ~root_value:(fun _ -> [| (if verdict then 1 else 0) |])
       ~derive:(fun _ ~parent_value -> parent_value));
  verdict

let two_edge_connected ?bits ?mask ledger rng g =
  Rounds.scoped ledger "verify2ec" @@ fun () ->
  match prepare ?mask ledger g with
  | None -> false
  | Some (tree, forest, h_mask) ->
    let labels =
      Labels.compute_distributed ?bits ledger rng ~forest tree ~h_mask
    in
    agree ledger forest (Labels.is_two_edge_connected labels)

let three_edge_connected ?bits ?mask ledger rng g =
  Rounds.scoped ledger "verify3ec" @@ fun () ->
  match prepare ?mask ledger g with
  | None -> false
  | Some (tree, forest, h_mask) ->
    let labels =
      Labels.compute_distributed ?bits ledger rng ~forest tree ~h_mask
    in
    agree ledger forest
      (Labels.is_two_edge_connected labels
      && Labels.is_three_edge_connected labels)
