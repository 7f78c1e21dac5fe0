open Kecss_graph

let pair ?mask g u v =
  let net = Maxflow.of_graph ?mask g in
  Maxflow.max_flow net ~s:u ~t:v

let connected_lambda ?mask ?upper g =
  let n = Graph.n g in
  if n <= 1 then max_int
  else if Dfs.bridges ?mask g <> [] then 1
  else
    (* bridgeless and connected: λ ≥ 2, settled without any max-flow when
       the caller only cares about λ up to 2 — this is what keeps k ≤ 2
       verification O(n + m) on million-vertex instances *)
    match upper with
    | Some u when u <= 2 -> min 2 u
    | _ ->
    begin
    let net = Maxflow.of_graph ?mask g in
    let best = ref max_int in
    for t = 1 to n - 1 do
      let limit =
        match upper with
        | None -> Some !best
        | Some u -> Some (min u !best)
      in
      let f = Maxflow.max_flow ?limit net ~s:0 ~t in
      if f < !best then best := f
    done;
    match upper with None -> !best | Some u -> min !best u
  end

let lambda ?mask ?upper g =
  if Graph.n g > 1 && not (Graph.is_connected ?mask g) then 0
  else connected_lambda ?mask ?upper g

let is_k_edge_connected ?mask g k =
  if k <= 0 then true
  else if k = 1 then Graph.is_connected ?mask g
  else lambda ?mask ~upper:k g >= k

let global_min_cut ?mask g =
  let n = Graph.n g in
  if n < 2 then invalid_arg "Edge_connectivity.global_min_cut: n < 2";
  if not (Graph.is_connected ?mask g) then begin
    let comp = Graph.components ?mask g in
    let side = Bitset.create n in
    Array.iteri (fun v c -> if c = comp.(0) then Bitset.add side v) comp;
    (0, side, [])
  end
  else begin
    let net = Maxflow.of_graph ?mask g in
    let best = ref max_int and best_t = ref 1 in
    for t = 1 to n - 1 do
      let f = Maxflow.max_flow ~limit:!best net ~s:0 ~t in
      if f < !best then begin
        best := f;
        best_t := t
      end
    done;
    (* re-run without limit for the winning sink to get a genuine min cut *)
    let lam = Maxflow.max_flow net ~s:0 ~t:!best_t in
    let side = Maxflow.min_cut_side net in
    (lam, side, Maxflow.cut_edges ?mask g side)
  end
