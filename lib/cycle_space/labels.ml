open Kecss_graph
open Kecss_connectivity
open Kecss_congest

type t = {
  tree : Rooted_tree.t;
  h_mask : Bitset.t;
  bits : int;
  label : int array; (* by edge id; -1 outside h_mask *)
  classes : (int, int) Hashtbl.t;
      (* label φ → n_φ, the number of H edges labelled φ: counted once per
         circulation (Claim 5.9) and never changed afterwards *)
}

let default_bits = 60

let check_args tree ~h_mask bits =
  if bits < 1 || bits > 62 then invalid_arg "Labels: bits must be in [1, 62]";
  let te = Rooted_tree.edges_mask tree in
  if not (Bitset.subset te h_mask) then
    invalid_arg "Labels: h_mask must contain all tree edges"

let finish tree ~h_mask ~bits label =
  let classes = Hashtbl.create 64 in
  Bitset.iter
    (fun id ->
      let l = label.(id) in
      Hashtbl.replace classes l
        (1 + Option.value ~default:0 (Hashtbl.find_opt classes l)))
    h_mask;
  { tree; h_mask; bits; label; classes }

let compute ?(bits = default_bits) rng tree ~h_mask =
  check_args tree ~h_mask bits;
  finish tree ~h_mask ~bits (Min_cut_enum.label_sweep ~bits rng tree ~h_mask)

let compute_distributed ?(bits = default_bits) ledger rng tree ~h_mask =
  Rounds.scoped ledger "labels" @@ fun () ->
  check_args tree ~h_mask bits;
  let g = Rooted_tree.graph tree in
  (* the smaller endpoint of every non-tree H edge draws the label and
     sends it across the edge — one round; the draws are the sequential
     sweep's, whose tree labels the wave below recomputes *)
  let label = Min_cut_enum.label_sweep ~bits rng tree ~h_mask in
  let is_h id = Bitset.mem h_mask id in
  let sends v =
    List.rev
      (Graph.fold_adj g v
         (fun acc nb id ->
           if is_h id && (not (Rooted_tree.is_tree_edge tree id)) && v < nb then
             { Network.edge = id; payload = [| label.(id) |] } :: acc
           else acc)
         [])
  in
  ignore (Prim.exchange ledger g sends);
  (* leaves-to-root wave: φ({v, p(v)}) = XOR of the labels of all H edges
     at v other than the parent edge (Theorem 4.2 of Pritchard–Thurimella) *)
  let forest = Forest.make g ~parent_edge:(Array.init (Graph.n g) (Rooted_tree.parent_edge tree)) in
  let values =
    Prim.wave_up ledger forest ~value:(fun v kids ->
        let local =
          Graph.fold_adj g v
            (fun acc _ id ->
              if is_h id && (not (Rooted_tree.is_tree_edge tree id)) then
                acc lxor label.(id)
              else acc)
            0
        in
        [| List.fold_left (fun acc k -> acc lxor k.(0)) local kids |])
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
  Option.value ~default:0 (Hashtbl.find_opt t.classes phi)

let tree_edge_count_with_label t phi =
  Bitset.fold
    (fun id acc ->
      if Rooted_tree.is_tree_edge t.tree id && t.label.(id) = phi then acc + 1
      else acc)
    t.h_mask 0

let pairs_covered t e =
  if Bitset.mem t.h_mask e then invalid_arg "Labels.pairs_covered: edge in H";
  let tree = t.tree in
  let u, v = Graph.endpoints (Rooted_tree.graph tree) e in
  let a = Rooted_tree.lca tree u v in
  let depth = Rooted_tree.depth tree in
  (* the labels of e's fundamental path, sorted so that each φ forms one
     run of length n_{φ,e}; stable_sort insertion-sorts the short paths
     most candidates have *)
  let path = Array.make (depth u + depth v - (2 * depth a)) 0 in
  let rec climb x i =
    if x = a then i
    else begin
      path.(i) <- t.label.(Rooted_tree.parent_edge tree x);
      climb (Rooted_tree.parent tree x) (i + 1)
    end
  in
  ignore (climb v (climb u 0));
  Array.stable_sort Int.compare path;
  let len = Array.length path in
  let total = ref 0 and i = ref 0 in
  while !i < len do
    let phi = path.(!i) in
    let j = ref (!i + 1) in
    while !j < len && path.(!j) = phi do incr j done;
    let c = !j - !i in
    total := !total + (c * (Hashtbl.find t.classes phi - c));
    i := !j
  done;
  !total

let is_two_edge_connected t =
  Bitset.fold
    (fun id ok ->
      ok && not (Rooted_tree.is_tree_edge t.tree id && t.label.(id) = 0))
    t.h_mask true

let is_three_edge_connected t =
  Bitset.fold
    (fun id ok ->
      ok
      && not
           (Rooted_tree.is_tree_edge t.tree id
           && Hashtbl.find t.classes t.label.(id) > 1))
    t.h_mask true

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
