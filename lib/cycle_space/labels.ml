open Kecss_graph
open Kecss_connectivity
open Kecss_congest

(* labels are uniform random bits, so their low bits hash them *)
module Classes = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash l = l land max_int
end)

type t = {
  tree : Rooted_tree.t;
  h_mask : Bitset.t;
  bits : int;
  label : int array; (* by edge id; -1 outside h_mask *)
  size : int array; (* class index → n_φ, the number of H edges labelled φ *)
  up : int array;
      (* by vertex: the class index of its parent edge when that class
         holds two edges or more, else -1 (the root, and classes of one,
         which cover no pair) *)
}

let default_bits = 60

let check_args tree ~h_mask bits =
  if bits < 1 || bits > 62 then invalid_arg "Labels: bits must be in [1, 62]";
  let te = Rooted_tree.edges_mask tree in
  if not (Bitset.subset te h_mask) then
    invalid_arg "Labels: h_mask must contain all tree edges"

(* The classes of the circulation, counted once (Claim 5.9): each H edge
   is hashed once to give its label a dense index, and n_φ is read from
   an int array by that index from then on. *)
let finish tree ~h_mask ~bits label =
  let g = Rooted_tree.graph tree in
  let n = Graph.n g in
  let index = Classes.create 64 in
  let cls = Array.make (Graph.m g) (-1) in
  let size = Array.make (max 1 (Bitset.cardinal h_mask)) 0 in
  Bitset.iter
    (fun id ->
      let c =
        match Classes.find_opt index label.(id) with
        | Some c -> c
        | None ->
          let c = Classes.length index in
          Classes.add index label.(id) c;
          c
      in
      cls.(id) <- c;
      size.(c) <- size.(c) + 1)
    h_mask;
  let up =
    Array.init n (fun v ->
        let pe = Rooted_tree.parent_edge tree v in
        if pe >= 0 && size.(cls.(pe)) > 1 then cls.(pe) else -1)
  in
  { tree; h_mask; bits; label; size; up }

let compute ?(bits = default_bits) rng tree ~h_mask =
  check_args tree ~h_mask bits;
  finish tree ~h_mask ~bits (Min_cut_enum.label_sweep ~bits rng tree ~h_mask)

let compute_distributed ?(bits = default_bits) ledger rng ~forest tree ~h_mask
    =
  Rounds.scoped ledger "labels" @@ fun () ->
  check_args tree ~h_mask bits;
  (* [of_rooted_tree] shares the tree's arrays *)
  if forest.Forest.parent_edge != Rooted_tree.parent_edges tree then
    invalid_arg "Labels.compute_distributed: forest is not the tree's";
  let g = Rooted_tree.graph tree in
  (* the smaller endpoint of every non-tree H edge draws the label and
     sends it across the edge — one round; the draws are the sequential
     sweep's, whose tree labels the wave below recomputes *)
  let label = Min_cut_enum.label_sweep ~bits rng tree ~h_mask in
  let non_tree = Bitset.copy h_mask in
  Bitset.diff_into non_tree (Rooted_tree.edges_mask tree);
  let off, nbr, eid = Graph.adjacency g in
  Prim.exchange_in_place ledger g ~post:(fun v out ->
      let lo = off.(v) in
      for k = lo to off.(v + 1) - 1 do
        let id = eid.(k) in
        if v < nbr.(k) && Bitset.mem non_tree id then
          Network.post1_port out ~port:(k - lo) label.(id)
      done);
  (* each vertex's XOR of the labels of its non-tree H edges *)
  let local = Array.make (Graph.n g) 0 in
  Bitset.iter
    (fun id ->
      let u = Graph.edge_u g id and v = Graph.edge_v g id in
      local.(u) <- local.(u) lxor label.(id);
      local.(v) <- local.(v) lxor label.(id))
    non_tree;
  (* leaves-to-root wave: φ({v, p(v)}) = XOR of the labels of all H edges
     at v other than the parent edge (Theorem 4.2 of Pritchard–Thurimella) *)
  let values =
    Prim.wave_up ledger forest ~value:(fun v kids ->
        [| List.fold_left (fun acc k -> acc lxor k.(0)) local.(v) kids |])
  in
  for v = 0 to Graph.n g - 1 do
    if v <> Rooted_tree.root tree then
      label.(Rooted_tree.parent_edge tree v) <- values.(v).(0)
  done;
  finish tree ~h_mask ~bits label

let bits t = t.bits
let tree t = t.tree
let h_mask t = t.h_mask

let label t e =
  if not (Bitset.mem t.h_mask e) then invalid_arg "Labels.label: edge not in H";
  t.label.(e)

let groups t =
  let tbl = Hashtbl.create 64 in
  Bitset.iter
    (fun id ->
      let l = t.label.(id) in
      Hashtbl.replace tbl l (id :: Option.value ~default:[] (Hashtbl.find_opt tbl l)))
    t.h_mask;
  Hashtbl.fold (fun l ids acc -> (l, List.sort compare ids) :: acc) tbl []
  |> List.sort compare

let cut_pairs t =
  groups t
  |> List.concat_map (fun (_, ids) ->
         let rec pairs = function
           | [] -> []
           | x :: rest -> List.map (fun y -> (x, y)) rest @ pairs rest
         in
         pairs ids)
  |> List.sort compare

let edge_count_with_label t phi =
  Bitset.fold (fun id acc -> if t.label.(id) = phi then acc + 1 else acc) t.h_mask 0

let tree_edge_count_with_label t phi =
  Bitset.fold
    (fun id acc ->
      if Rooted_tree.is_tree_edge t.tree id && t.label.(id) = phi then acc + 1
      else acc)
    t.h_mask 0

let pairs_covered t e =
  if Bitset.mem t.h_mask e then invalid_arg "Labels.pairs_covered: edge in H";
  let g = Rooted_tree.graph t.tree in
  let parent = Rooted_tree.parents t.tree
  and depth = Rooted_tree.depths t.tree
  and up = t.up in
  (* the classes of e's fundamental path that hold two edges or more,
     climbing the deeper end until both ends meet at their LCA; the
     array is made at the first such class, with room for the rest of
     the path *)
  let path = ref [||] and len = ref 0 in
  let x = ref (Graph.edge_u g e) and y = ref (Graph.edge_v g e) in
  while !x <> !y do
    let z = if depth.(!x) >= depth.(!y) then !x else !y in
    let c = up.(z) in
    if c >= 0 then begin
      if !len = 0 then path := Array.make (depth.(!x) + depth.(!y)) 0;
      !path.(!len) <- c;
      incr len
    end;
    if z = !x then x := parent.(z) else y := parent.(z)
  done;
  (* sorted, each class forms one run of length n_{φ,e}; stable_sort
     insertion-sorts the short paths most candidates have *)
  let path = Array.sub !path 0 !len in
  Array.stable_sort Int.compare path;
  let len = Array.length path in
  let total = ref 0 and i = ref 0 in
  while !i < len do
    let c = path.(!i) in
    let j = ref (!i + 1) in
    while !j < len && path.(!j) = c do incr j done;
    let k = !j - !i in
    total := !total + (k * (t.size.(c) - k));
    i := !j
  done;
  !total

let is_two_edge_connected t =
  Bitset.fold
    (fun id ok ->
      ok && not (Rooted_tree.is_tree_edge t.tree id && t.label.(id) = 0))
    t.h_mask true

(* a tree edge shares its label iff its vertex's [up] names a class *)
let is_three_edge_connected t = Array.for_all (fun c -> c < 0) t.up

let pp ppf t =
  let g = Rooted_tree.graph t.tree in
  Format.fprintf ppf "@[<v>cycle-space labels (b=%d):@," t.bits;
  Bitset.iter
    (fun id ->
      let u, v = Graph.endpoints g id in
      Format.fprintf ppf "  %s e%-3d %d--%d  φ=%Lx@,"
        (if Rooted_tree.is_tree_edge t.tree id then "T" else " ")
        id u v
        (Int64.of_int t.label.(id)))
    t.h_mask;
  let classes = List.filter (fun (_, ids) -> List.length ids > 1) (groups t) in
  Format.fprintf ppf "  cut-pair classes: %d@," (List.length classes);
  List.iter
    (fun (l, ids) ->
      Format.fprintf ppf "    φ=%Lx: {%s}@," (Int64.of_int l)
        (String.concat ", " (List.map (fun i -> "e" ^ string_of_int i) ids)))
    classes;
  Format.fprintf ppf "@]"
