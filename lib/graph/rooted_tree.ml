type t = {
  graph : Graph.t;
  root : int;
  parent : int array;
  parent_edge : int array;
  depth : int array;
  children : int list array;
  preorder : int array;
}

let build graph root parent parent_edge =
  let n = Graph.n graph in
  let children = Array.make n [] in
  for v = n - 1 downto 0 do
    if v <> root then begin
      if parent.(v) < 0 then invalid_arg "Rooted_tree: not spanning";
      children.(parent.(v)) <- v :: children.(parent.(v))
    end
  done;
  let depth = Array.make n (-1) in
  let preorder = Array.make n root in
  (* Iterative DFS to avoid stack overflow on path-shaped trees. A vertex
     is pushed once, when its parent is visited, so the stack, like the
     preorder, holds at most n vertices, and a cycle leaves the count
     short. *)
  let stack = Array.make n root in
  let top = ref 1 and count = ref 0 in
  depth.(root) <- 0;
  while !top > 0 do
    decr top;
    let v = stack.(!top) in
    preorder.(!count) <- v;
    incr count;
    List.iter
      (fun c ->
        depth.(c) <- depth.(v) + 1;
        stack.(!top) <- c;
        incr top)
      children.(v)
  done;
  if !count <> n then invalid_arg "Rooted_tree: not spanning (cycle or forest)";
  { graph; root; parent; parent_edge; depth; children; preorder }

let of_parent_edges graph ~root pe =
  let n = Graph.n graph in
  if Array.length pe <> n then invalid_arg "Rooted_tree: bad array length";
  if pe.(root) <> -1 then invalid_arg "Rooted_tree: root must have no parent edge";
  let parent = Array.make n (-1) in
  for v = 0 to n - 1 do
    if v <> root then begin
      if pe.(v) < 0 then invalid_arg "Rooted_tree: missing parent edge";
      parent.(v) <- Graph.other_end graph pe.(v) v
    end
  done;
  build graph root parent pe

let of_mask graph ~root mask =
  if Bitset.cardinal mask <> Graph.n graph - 1 then
    invalid_arg "Rooted_tree.of_mask: wrong edge count for a spanning tree";
  let dist, pe = Graph.bfs_tree ~mask graph root in
  Array.iter (fun d -> if d < 0 then invalid_arg "Rooted_tree.of_mask: not spanning") dist;
  of_parent_edges graph ~root pe

let bfs_tree graph ~root =
  let dist, pe = Graph.bfs_tree graph root in
  Array.iter
    (fun d -> if d < 0 then invalid_arg "Rooted_tree.bfs_tree: disconnected graph")
    dist;
  of_parent_edges graph ~root pe

let graph t = t.graph
let root t = t.root
let parent t v = t.parent.(v)
let parent_edge t v = t.parent_edge.(v)
let depth t v = t.depth.(v)
let parents t = t.parent
let parent_edges t = t.parent_edge
let depths t = t.depth
let height t = Array.fold_left max 0 t.depth
let children t v = t.children.(v)
let preorder t = t.preorder

let edges_mask t =
  let s = Bitset.create (Graph.m t.graph) in
  Array.iteri (fun v id -> if v <> t.root then Bitset.add s id) t.parent_edge;
  s

let is_tree_edge t id =
  t.parent_edge.(Graph.edge_u t.graph id) = id
  || t.parent_edge.(Graph.edge_v t.graph id) = id

let lower_endpoint t id =
  let u = Graph.edge_u t.graph id in
  if t.parent_edge.(u) = id then u
  else
    let v = Graph.edge_v t.graph id in
    if t.parent_edge.(v) = id then v
    else invalid_arg "Rooted_tree.lower_endpoint: not a tree edge"

(* [v] climbs to [a]'s depth *)
let is_ancestor t a v =
  let v = ref v in
  while t.depth.(!v) > t.depth.(a) do
    v := t.parent.(!v)
  done;
  !v = a

let ancestor_at_depth t v d =
  if d > t.depth.(v) || d < 0 then invalid_arg "Rooted_tree.ancestor_at_depth";
  let v = ref v in
  while t.depth.(!v) > d do
    v := t.parent.(!v)
  done;
  !v

(* the deeper end steps to its parent until the two ends meet *)
let lca t u v =
  let u = ref u and v = ref v in
  while !u <> !v do
    if t.depth.(!u) >= t.depth.(!v) then u := t.parent.(!u)
    else v := t.parent.(!v)
  done;
  !u

let covers t e tree_e =
  let x = lower_endpoint t tree_e in
  is_ancestor t x (Graph.edge_u t.graph e)
  <> is_ancestor t x (Graph.edge_v t.graph e)

let path_up t ~from ~to_anc =
  (* edge ids from [from] walking up to (excluding) ancestor [to_anc] *)
  let rec go v acc =
    if v = to_anc then List.rev acc else go t.parent.(v) (t.parent_edge.(v) :: acc)
  in
  go from []

let path_between t u v =
  let a = lca t u v in
  path_up t ~from:u ~to_anc:a @ List.rev (path_up t ~from:v ~to_anc:a)

let fundamental_path t e =
  let u, v = Graph.endpoints t.graph e in
  path_between t u v

let cover_counts t es =
  let n = Graph.n t.graph in
  let delta = Array.make n 0 in
  List.iter
    (fun e ->
      let u, v = Graph.endpoints t.graph e in
      let a = lca t u v in
      delta.(u) <- delta.(u) + 1;
      delta.(v) <- delta.(v) + 1;
      delta.(a) <- delta.(a) - 2)
    es;
  (* subtree sums in reverse preorder *)
  let sums = Array.copy delta in
  let order = t.preorder in
  for i = n - 1 downto 0 do
    let v = order.(i) in
    if v <> t.root then sums.(t.parent.(v)) <- sums.(t.parent.(v)) + sums.(v)
  done;
  sums.(t.root) <- 0;
  sums

type walker = { tree : t; jump : int array; by : int array }

let walker t =
  let n = Graph.n t.graph in
  { tree = t; jump = Array.init n Fun.id; by = Array.make n (-1) }

(* the nearest vertex at or above [x] whose tree edge is uncovered (the
   root has none, so it ends every search) *)
let rec find w x =
  if w.by.(x) < 0 then x
  else begin
    let r = find w w.jump.(x) in
    w.jump.(x) <- r;
    r
  end

(* [x] and [y] are the uncovered ends of what is left of [e]'s path:
   until they meet, at the nearest uncovered vertex at or above the LCA,
   the deeper one covers its tree edge and moves on to the next
   uncovered vertex above it. Top-level, so a call builds no closure. *)
let rec cover_between w e x y =
  if x <> y then
    if w.tree.depth.(x) < w.tree.depth.(y) then cover_between w e y x
    else begin
      let p = w.tree.parent.(x) in
      w.by.(x) <- e;
      w.jump.(x) <- p;
      cover_between w e (find w p) y
    end

let cover_path w e =
  let u = Graph.edge_u w.tree.graph e and v = Graph.edge_v w.tree.graph e in
  cover_between w e (find w u) (find w v)

let covered_by w x = w.by.(x)
