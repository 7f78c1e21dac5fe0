open Kecss_graph

type t = {
  graph : Graph.t;
  parent : int array;
  parent_edge : int array;
  parent_port : int array;
  depth : int array;
  child_off : int array;
  child : int array;
  child_port : int array;
  roots : int list;
  root_of : int array;
}

(* The children as CSR arrays: a counting sort of the vertices by
   parent, ascending within each row *)
let children_of_parents parent =
  let n = Array.length parent in
  let off = Array.make (n + 1) 0 in
  Array.iter (fun p -> if p >= 0 then off.(p + 1) <- off.(p + 1) + 1) parent;
  for v = 1 to n do
    off.(v) <- off.(v) + off.(v - 1)
  done;
  let child = Array.make off.(n) 0 in
  let fill = Array.sub off 0 n in
  Array.iteri
    (fun v p ->
      if p >= 0 then begin
        child.(fill.(p)) <- v;
        fill.(p) <- fill.(p) + 1
      end)
    parent;
  (off, child)

(* Every vertex's port of its parent edge, and every child's port at its
   parent in [child]'s order: one pass over the adjacency rows. An edge
   that is not [v]'s own parent edge is the parent edge of its far end
   exactly when that end is one of [v]'s children. *)
let ports graph ~parent_edge ~child =
  let n = Graph.n graph in
  let off, nbr, eid = Graph.adjacency graph in
  let parent_port = Array.make n (-1) and up = Array.make n (-1) in
  for v = 0 to n - 1 do
    let lo = off.(v) and pe = parent_edge.(v) in
    for k = lo to off.(v + 1) - 1 do
      let e = eid.(k) in
      if e = pe then parent_port.(v) <- k - lo
      else if parent_edge.(nbr.(k)) = e then up.(nbr.(k)) <- k - lo
    done
  done;
  (parent_port, Array.map (fun c -> up.(c)) child)

let make graph ~parent_edge =
  let n = Graph.n graph in
  if Array.length parent_edge <> n then invalid_arg "Forest.make: bad length";
  let parent =
    Array.mapi
      (fun v pe -> if pe >= 0 then Graph.other_end graph pe v else -1)
      parent_edge
  in
  let child_off, child = children_of_parents parent in
  (* breadth-first from the roots, ascending: whatever it does not reach
     hangs on a cycle *)
  let depth = Array.make n (-1) and root_of = Array.make n (-1) in
  let queue = Array.make n 0 and tail = ref 0 in
  let roots = ref [] in
  for v = n - 1 downto 0 do
    if parent.(v) < 0 then roots := v :: !roots
  done;
  List.iter
    (fun r ->
      depth.(r) <- 0;
      root_of.(r) <- r;
      queue.(!tail) <- r;
      incr tail)
    !roots;
  let head = ref 0 in
  while !head < !tail do
    let x = queue.(!head) in
    incr head;
    for j = child_off.(x) to child_off.(x + 1) - 1 do
      let c = child.(j) in
      depth.(c) <- depth.(x) + 1;
      root_of.(c) <- root_of.(x);
      queue.(!tail) <- c;
      incr tail
    done
  done;
  if !tail < n then invalid_arg "Forest.make: parent pointers contain a cycle";
  let parent_port, child_port = ports graph ~parent_edge ~child in
  {
    graph;
    parent;
    parent_edge;
    parent_port;
    depth;
    child_off;
    child;
    child_port;
    roots = !roots;
    root_of;
  }

(* the tree's parent, parent-edge and depth arrays, shared *)
let of_rooted_tree t =
  let graph = Rooted_tree.graph t in
  let root = Rooted_tree.root t in
  let parent = Rooted_tree.parents t in
  let parent_edge = Rooted_tree.parent_edges t in
  let child_off, child = children_of_parents parent in
  let parent_port, child_port = ports graph ~parent_edge ~child in
  {
    graph;
    parent;
    parent_edge;
    parent_port;
    depth = Rooted_tree.depths t;
    child_off;
    child;
    child_port;
    roots = [ root ];
    root_of = Array.make (Graph.n graph) root;
  }

let singleton graph = make graph ~parent_edge:(Array.make (Graph.n graph) (-1))

let max_depth t = Array.fold_left max 0 t.depth
