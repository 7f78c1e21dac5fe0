open Kecss_graph
open Kecss_connectivity

(* compare ρ1 = c1/w1 and ρ2 = c2/w2 without division; w = 0 means ∞ *)
let better_rho (c1, w1, id1) (c2, w2, id2) =
  if c2 = 0 then true
  else if c1 = 0 then false
  else if w1 = 0 && w2 = 0 then id1 < id2
  else if w1 = 0 then true
  else if w2 = 0 then false
  else
    let lhs = c1 * w2 and rhs = c2 * w1 in
    lhs > rhs || (lhs = rhs && id1 < id2)

let tap g tree =
  let n = Graph.n g in
  let root = Rooted_tree.root tree in
  let covered = Array.make n false in
  let uncovered = ref (n - 1) in
  let a = Graph.no_edges_mask g in
  let non_tree =
    Graph.fold_edges
      (fun e acc ->
        if Rooted_tree.is_tree_edge tree e.Graph.id then acc else e.Graph.id :: acc)
      g []
    |> List.rev
  in
  let counts () =
    let cnt = Array.make n 0 in
    Array.iter
      (fun v ->
        if v <> root then
          cnt.(v) <-
            cnt.(Rooted_tree.parent tree v) + (if covered.(v) then 0 else 1))
      (Rooted_tree.preorder tree);
    fun e ->
      let u, v = Graph.endpoints g e in
      cnt.(u) + cnt.(v) - (2 * cnt.(Rooted_tree.lca tree u v))
  in
  let cover_path e =
    List.iter
      (fun te ->
        let x = Rooted_tree.lower_endpoint tree te in
        if not covered.(x) then begin
          covered.(x) <- true;
          decr uncovered
        end)
      (Rooted_tree.fundamental_path tree e)
  in
  while !uncovered > 0 do
    let ce = counts () in
    let best = ref (0, 0, -1) in
    List.iter
      (fun e ->
        if not (Bitset.mem a e) then begin
          let cand = (ce e, Graph.weight g e, e) in
          if better_rho cand !best then best := cand
        end)
      non_tree;
    match !best with
    | _, _, -1 | 0, _, _ -> failwith "Greedy.tap: graph is not 2-edge-connected"
    | _, _, e ->
      Bitset.add a e;
      cover_path e
  done;
  a

let augmentation g ~h ~k =
  let a = Graph.no_edges_mask g in
  let mask_union () =
    let u = Bitset.copy h in
    Bitset.union_into u a;
    u
  in
  if Edge_connectivity.is_k_edge_connected ~mask:h g k then a
  else begin
    let rng = Rng.create ~seed:0x9e3779b9 in
    let lam, cuts = Min_cut_enum.min_cuts ~mask:h ~rng g in
    if lam <> k - 1 then invalid_arg "Greedy.augmentation: H is not (k-1)-EC";
    let cuts = Array.of_list cuts in
    let cov = Array.make (Array.length cuts) false in
    let uncovered = ref (Array.length cuts) in
    let candidates =
      Graph.fold_edges
        (fun e acc -> if Bitset.mem h e.Graph.id then acc else e.Graph.id :: acc)
        g []
    in
    while !uncovered > 0 do
      let score e =
        let c = ref 0 in
        Array.iteri
          (fun i cut ->
            if (not cov.(i)) && Min_cut_enum.covers g cut e then incr c)
          cuts;
        !c
      in
      let best = ref (0, 0, -1) in
      List.iter
        (fun e ->
          if not (Bitset.mem a e) then begin
            let cand = (score e, Graph.weight g e, e) in
            if better_rho cand !best then best := cand
          end)
        candidates;
      (match !best with
      | _, _, -1 | 0, _, _ -> uncovered := 0 (* fall through to repair *)
      | _, _, e ->
        Bitset.add a e;
        Array.iteri
          (fun i cut ->
            if (not cov.(i)) && Min_cut_enum.covers g cut e then begin
              cov.(i) <- true;
              decr uncovered
            end)
          cuts)
    done;
    (* exact repair loop, as in the distributed implementation *)
    let guard = ref 0 in
    while not (Edge_connectivity.is_k_edge_connected ~mask:(mask_union ()) g k) do
      incr guard;
      if !guard > Graph.m g then
        failwith "Greedy.augmentation: graph is not k-edge-connected";
      let _, side, _ = Edge_connectivity.global_min_cut ~mask:(mask_union ()) g in
      let best = ref None in
      Graph.iter_edges
        (fun e ->
          if
            (not (Bitset.mem h e.Graph.id || Bitset.mem a e.Graph.id))
            && Bitset.mem side e.Graph.u <> Bitset.mem side e.Graph.v
          then
            match !best with
            | Some (w, id) when (w, id) <= (e.Graph.w, e.Graph.id) -> ()
            | _ -> best := Some (e.Graph.w, e.Graph.id))
        g;
      match !best with
      | Some (_, e) -> Bitset.add a e
      | None -> failwith "Greedy.augmentation: graph is not k-edge-connected"
    done;
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
