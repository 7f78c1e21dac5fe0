open Kecss_graph
open Kecss_connectivity
open Kecss_core

let tap _g tree =
  match Tap.problem tree with
  | p -> Cover.greedy p
  | exception Failure _ -> failwith "Greedy.tap: graph is not 2-edge-connected"

let augmentation g ~h ~k =
  let lam = Edge_connectivity.lambda ~mask:h ~upper:k g in
  if lam >= k then Graph.no_edges_mask g
  else begin
    if lam <> k - 1 then invalid_arg "Greedy.augmentation: H is not (k-1)-EC";
    let rng = Rng.create ~seed:0x9e3779b9 in
    let _, cuts = Min_cut_enum.min_cuts ~mask:h ~rng g ~size:lam in
    let a =
      match Cover.greedy (Augk.cut_problem g ~h (Array.of_list cuts)) with
      | a -> a
      | exception Invalid_argument _ ->
        (* a cut no edge outside H crosses: G is not k-edge-connected,
           which the repair below reports *)
        Graph.no_edges_mask g
    in
    (* exact repair, as in the distributed implementation *)
    ignore
      (Augk.repair Kecss_obs.Trace.noop ~algo:"greedy"
         ~fail:"Greedy.augmentation: graph is not k-edge-connected"
         ~weight:(Graph.weight g) g ~h ~a ~k);
    a
  end

let kruskal_mst g =
  let ids = Array.init (Graph.m g) Fun.id in
  Array.sort (fun a b -> compare (Graph.weight g a, a) (Graph.weight g b, b)) ids;
  let uf = Union_find.create (Graph.n g) in
  let mask = Graph.no_edges_mask g in
  Array.iter
    (fun e ->
      if Union_find.union uf (Graph.edge_u g e) (Graph.edge_v g e) then
        Bitset.add mask e)
    ids;
  mask

let kecss g ~k =
  if k < 1 then invalid_arg "Greedy.kecss: k must be >= 1";
  let h = kruskal_mst g in
  for i = 2 to k do
    Bitset.union_into h (augmentation g ~h ~k:i)
  done;
  h
