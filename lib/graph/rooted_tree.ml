type t = {
  graph : Graph.t;
  root : int;
  parent : int array;
  parent_edge : int array;
  depth : int array;
  children : int list array;
  preorder : int array;
  tin : int array;
  tout : int array;
  up : int array array; (* up.(j).(v): 2^j-th ancestor of v, -1 past root *)
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
  let tin = Array.make n 0 and tout = Array.make n 0 in
  let preorder = Array.make n root in
  (* Iterative DFS to avoid stack overflow on path-shaped trees. *)
  let clock = ref 0 and count = ref 0 in
  let stack = Stack.create () in
  Stack.push (`Enter root) stack;
  depth.(root) <- 0;
  while not (Stack.is_empty stack) do
    match Stack.pop stack with
    | `Enter v ->
      tin.(v) <- !clock;
      incr clock;
      preorder.(!count) <- v;
      incr count;
      Stack.push (`Exit v) stack;
      List.iter
        (fun c ->
          depth.(c) <- depth.(v) + 1;
          Stack.push (`Enter c) stack)
        children.(v)
    | `Exit v ->
      tout.(v) <- !clock;
      incr clock
  done;
  if !count <> n then invalid_arg "Rooted_tree: not spanning (cycle or forest)";
  let levels =
    let rec go acc v = if 1 lsl acc >= v then acc + 1 else go (acc + 1) v in
    go 0 (max 1 n)
  in
  let up = Array.make levels [||] in
  up.(0) <- Array.copy parent;
  for j = 1 to levels - 1 do
    up.(j) <-
      Array.init n (fun v ->
          let half = up.(j - 1).(v) in
          if half < 0 then -1 else up.(j - 1).(half))
  done;
  { graph; root; parent; parent_edge; depth; children; preorder; tin; tout; up }

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
let depths t = t.depth
let height t = Array.fold_left max 0 t.depth
let children t v = t.children.(v)
let preorder t = t.preorder

let edges_mask t =
  let s = Bitset.create (Graph.m t.graph) in
  Array.iteri (fun v id -> if v <> t.root then Bitset.add s id) t.parent_edge;
  s

let is_tree_edge t id =
  let u, v = Graph.endpoints t.graph id in
  t.parent_edge.(u) = id || t.parent_edge.(v) = id

let lower_endpoint t id =
  let u, v = Graph.endpoints t.graph id in
  if t.parent_edge.(u) = id then u
  else if t.parent_edge.(v) = id then v
  else invalid_arg "Rooted_tree.lower_endpoint: not a tree edge"

let is_ancestor t a v = t.tin.(a) <= t.tin.(v) && t.tout.(v) <= t.tout.(a)

let ancestor_at_depth t v d =
  if d > t.depth.(v) || d < 0 then invalid_arg "Rooted_tree.ancestor_at_depth";
  let v = ref v and delta = ref (t.depth.(v) - d) in
  let j = ref 0 in
  while !delta > 0 do
    if !delta land 1 = 1 then v := t.up.(!j).(!v);
    delta := !delta lsr 1;
    incr j
  done;
  !v

let lca t u v =
  if is_ancestor t u v then u
  else if is_ancestor t v u then v
  else begin
    let u = ref (ancestor_at_depth t u (min t.depth.(u) t.depth.(v))) in
    (* walk u up until just below a common ancestor *)
    for j = Array.length t.up - 1 downto 0 do
      let cand = t.up.(j).(!u) in
      if cand >= 0 && not (is_ancestor t cand v) then u := cand
    done;
    t.parent.(!u)
  end

let covers t e tree_e =
  let x = lower_endpoint t tree_e in
  let u, v = Graph.endpoints t.graph e in
  is_ancestor t x u <> is_ancestor t x v

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

(* top-level, so a call builds no closure *)
let rec climb w e lca_depth x =
  let x = find w x in
  if w.tree.depth.(x) > lca_depth then begin
    let p = w.tree.parent.(x) in
    w.by.(x) <- e;
    w.jump.(x) <- p;
    climb w e lca_depth p
  end

let cover_path w e =
  let u = Graph.edge_u w.tree.graph e and v = Graph.edge_v w.tree.graph e in
  let d = w.tree.depth.(lca w.tree u v) in
  climb w e d u;
  climb w e d v

let covered_by w x = w.by.(x)
