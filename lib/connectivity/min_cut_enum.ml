open Kecss_graph
module Pool = Kecss_par.Pool

type cut = { edge_ids : int list; side : Bitset.t }

let covers g c e =
  let u, v = Graph.endpoints g e in
  Bitset.mem c.side u <> Bitset.mem c.side v

let masked_edges ?mask g =
  Graph.fold_edges
    (fun e acc ->
      match mask with
      | Some s when not (Bitset.mem s e.Graph.id) -> acc
      | _ -> e.Graph.id :: acc)
    g []
  |> List.rev

let canonical_key edge_ids = String.concat "," (List.map string_of_int edge_ids)

let side_of_subset g bits =
  (* bit i of [bits] decides vertex i+1; vertex 0 always on the side *)
  let side = Bitset.create (Graph.n g) in
  Bitset.add side 0;
  for v = 1 to Graph.n g - 1 do
    if bits land (1 lsl (v - 1)) <> 0 then Bitset.add side v
  done;
  side

let delta ?mask g side =
  let allowed id = match mask with None -> true | Some s -> Bitset.mem s id in
  Graph.fold_edges
    (fun e acc ->
      if allowed e.Graph.id && Bitset.mem side e.Graph.u <> Bitset.mem side e.Graph.v
      then e.Graph.id :: acc
      else acc)
    g []
  |> List.sort compare

let enumerate_exhaustive ?mask g ~size =
  let n = Graph.n g in
  if n > 24 then invalid_arg "Min_cut_enum.enumerate_exhaustive: n too large";
  let seen = Hashtbl.create 64 in
  let out = ref [] in
  (* subsets of {1..n-1}; vertex 0 pinned to the side, excluding S = V *)
  for bits = 0 to (1 lsl (n - 1)) - 2 do
    let side = side_of_subset g bits in
    let cut_ids = delta ?mask g side in
    if List.length cut_ids = size then begin
      let key = canonical_key cut_ids in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.replace seen key ();
        out := { edge_ids = cut_ids; side } :: !out
      end
    end
  done;
  List.rev !out

(* cuts of size 1 are the bridges: no sampling needed *)
let enumerate_bridges ?mask g =
  List.map
    (fun b ->
      let keep =
        match mask with
        | None -> Graph.all_edges_mask g
        | Some s -> Bitset.copy s
      in
      Bitset.remove keep b;
      let comp = Graph.components ~mask:keep g in
      let side = Bitset.create (Graph.n g) in
      Array.iteri (fun v c -> if c = comp.(0) then Bitset.add side v) comp;
      { edge_ids = [ b ]; side })
    (Dfs.bridges ?mask g)

(* One block of Karger trials with its own rng and scratch: the unit of
   parallel fan-out. Returns the distinct cuts of exactly [size] crossing
   edges found by these trials, in discovery order. The trial loop is the
   whole cost of §4's local preprocessing, so it avoids all per-trial
   allocation beyond the union-find: the shuffle buffer is refilled by
   blit (same rng draws as a fresh array), the crossing test compares
   union-find roots directly, and the side bitset is only materialized
   for cuts seen for the first time. [base] is ascending, so the
   collected cut edge ids need no sort, and the sorted list itself is the
   dedup key. *)
let run_trial_block ~rng ~trials ~n ~base ~us ~vs ~size =
  let m_ids = Array.length base in
  (* shuffling positions instead of ids keeps the rng draws identical
     (same array length) while the contraction reads endpoints from the
     flat arrays above *)
  let positions = Array.init (max 1 m_ids) (fun j -> j) in
  let order = Array.make (max 1 m_ids) 0 in
  let side_buf = Array.make (max 1 n) false in
  (* flat union-find reset in place per trial: any union strategy yields
     the same final partition, so this changes nothing observable *)
  let parent = Array.make (max 1 n) 0 in
  let rank = Array.make (max 1 n) 0 in
  (* bounds checks cost ~30% of the whole enumeration here, and every
     index below is a vertex id < n or a position < m_ids by
     construction, so the kernel uses the unsafe accessors *)
  let find x =
    let x = ref x in
    while Array.unsafe_get parent !x <> !x do
      Array.unsafe_set parent !x
        (Array.unsafe_get parent (Array.unsafe_get parent !x));
      x := Array.unsafe_get parent !x
    done;
    !x
  in
  let pos_buf = Array.make (size + 1) 0 in
  let seen = Hashtbl.create 64 in
  let out = ref [] in
  for _ = 1 to trials do
    Array.blit positions 0 order 0 m_ids;
    Rng.shuffle rng order;
    for v = 0 to n - 1 do
      parent.(v) <- v
    done;
    Array.fill rank 0 n 0;
    let remaining = ref n and i = ref 0 in
    while !remaining > 2 && !i < m_ids do
      let j = Array.unsafe_get order !i in
      incr i;
      (* [find], hand-inlined twice: without flambda the closure call
         costs more than the path-halving loop it wraps *)
      let x = ref (Array.unsafe_get us j) in
      while Array.unsafe_get parent !x <> !x do
        Array.unsafe_set parent !x
          (Array.unsafe_get parent (Array.unsafe_get parent !x));
        x := Array.unsafe_get parent !x
      done;
      let ru = !x in
      x := Array.unsafe_get vs j;
      while Array.unsafe_get parent !x <> !x do
        Array.unsafe_set parent !x
          (Array.unsafe_get parent (Array.unsafe_get parent !x));
        x := Array.unsafe_get parent !x
      done;
      let rv = !x in
      if ru <> rv then begin
        if Array.unsafe_get rank ru < Array.unsafe_get rank rv then
          Array.unsafe_set parent ru rv
        else begin
          Array.unsafe_set parent rv ru;
          if Array.unsafe_get rank ru = Array.unsafe_get rank rv then
            Array.unsafe_set rank ru (Array.unsafe_get rank ru + 1)
        end;
        decr remaining
      end
    done;
    if !remaining = 2 then begin
      (* label each vertex's side once (n finds beat 2m finds), then
         scan the edges recording crossing positions; the scan stops as
         soon as the count overshoots [size], and the side bitset is
         only materialized for cuts seen for the first time *)
      let r0 = find 0 in
      for v = 0 to n - 1 do
        Array.unsafe_set side_buf v (find v = r0)
      done;
      let count = ref 0 and j = ref 0 in
      while !count <= size && !j < m_ids do
        if
          Array.unsafe_get side_buf (Array.unsafe_get us !j)
          <> Array.unsafe_get side_buf (Array.unsafe_get vs !j)
        then begin
          if !count < size + 1 then pos_buf.(!count) <- !j;
          incr count
        end;
        incr j
      done;
      if !count = size then begin
        let cut_ids = ref [] in
        for c = size - 1 downto 0 do
          cut_ids := base.(pos_buf.(c)) :: !cut_ids
        done;
        let cut_ids = !cut_ids in
        if not (Hashtbl.mem seen cut_ids) then begin
          Hashtbl.replace seen cut_ids ();
          let side = Bitset.create n in
          for v = 0 to n - 1 do
            if side_buf.(v) then Bitset.add side v
          done;
          out := { edge_ids = cut_ids; side } :: !out
        end
      end
    end
  done;
  List.rev !out

(* Trials are grouped into blocks of at least [min_block_trials], capped
   at [max_blocks]; the block structure depends only on the trial count —
   never on the pool size — so the per-block rng streams, and with them
   the enumerated cut set, are identical at every [jobs]. *)
let max_blocks = 128
let min_block_trials = 32

let enumerate ?mask ?trials ?pool ~rng g ~size =
  if size = 1 then enumerate_bridges ?mask g
  else begin
    let n = Graph.n g in
    let edge_ids = masked_edges ?mask g in
    let trials =
      match trials with
      | Some t -> t
      | None ->
        let ln = int_of_float (ceil (log (float_of_int (max 2 n)))) in
        3 * n * n * ln
    in
    let base = Array.of_list edge_ids in
    let us = Array.map (fun id -> fst (Graph.endpoints g id)) base in
    let vs = Array.map (fun id -> snd (Graph.endpoints g id)) base in
    let blocks = max 1 (min max_blocks (trials / min_block_trials)) in
    (* per-block rng streams, derived sequentially up-front: block b's
       draws are fixed before any task runs *)
    let specs =
      Array.init blocks (fun b ->
          let share = (trials / blocks) + (if b < trials mod blocks then 1 else 0) in
          (Rng.split rng, share))
    in
    let found =
      Pool.map ?pool ~chunk:1
        (fun (rng, trials) -> run_trial_block ~rng ~trials ~n ~base ~us ~vs ~size)
        specs
    in
    (* canonical-order union: blocks merge in index order, cuts keep their
       first-discovery position — scheduling cannot reorder the result *)
    let seen = Hashtbl.create 64 in
    let out = ref [] in
    Array.iter
      (List.iter (fun c ->
           if not (Hashtbl.mem seen c.edge_ids) then begin
             Hashtbl.replace seen c.edge_ids ();
             out := c :: !out
           end))
      found;
    List.rev !out
  end

(* ----- the exact census from §5's cycle-space labels ----- *)

let random_label rng bits =
  (* uniform in [0, 2^bits), built from 30-bit draws *)
  let rec go acc remaining =
    if remaining <= 0 then acc
    else
      let take = min 30 remaining in
      go ((acc lsl take) lor Rng.int rng (1 lsl take)) (remaining - take)
  in
  go 0 bits

let label_sweep ~bits rng tree ~h_mask =
  let g = Rooted_tree.graph tree in
  let n = Graph.n g in
  let label = Array.make (Graph.m g) (-1) in
  let acc = Array.make n 0 in
  Bitset.iter
    (fun id ->
      if not (Rooted_tree.is_tree_edge tree id) then begin
        let l = random_label rng bits in
        label.(id) <- l;
        let u, v = Graph.endpoints g id in
        acc.(u) <- acc.(u) lxor l;
        acc.(v) <- acc.(v) lxor l
      end)
    h_mask;
  (* φ(tree edge below x) is the XOR of acc over subtree(x): a non-tree
     edge with both endpoints inside cancels, one with exactly one endpoint
     inside — i.e. a covering edge — survives. *)
  let order = Rooted_tree.preorder tree in
  for i = n - 1 downto 0 do
    let x = order.(i) in
    if x <> Rooted_tree.root tree then begin
      label.(Rooted_tree.parent_edge tree x) <- acc.(x);
      let p = Rooted_tree.parent tree x in
      acc.(p) <- acc.(p) lxor acc.(x)
    end
  done;
  label

(* H with a BFS tree rooted at vertex 0 and one label sweep over it *)
type labelled = { h : Bitset.t; is_tree : bool array; label : int array }

let label_connected ?(bits = 60) ~rng g h =
  let _, pe = Graph.bfs_tree ~mask:h g 0 in
  let tree = Rooted_tree.of_parent_edges g ~root:0 pe in
  let is_tree = Array.make (Graph.m g) false in
  Array.iter (fun e -> if e >= 0 then is_tree.(e) <- true) pe;
  { h; is_tree; label = label_sweep ~bits rng tree ~h_mask:h }

let label_h ?bits ?mask ~rng g =
  let h = match mask with Some s -> s | None -> Graph.all_edges_mask g in
  if not (Graph.is_connected ~mask:h g) then
    invalid_arg "Min_cut_enum.census: the subgraph is not connected";
  label_connected ?bits ~rng g h

(* Calls [f] on every set of [size] ∈ {2, 3} edges of H whose labels XOR
   to zero, as an increasing id list: every cut of that size (its edges
   XOR to zero under every circulation), and each other set with
   probability 2^−bits. A non-empty cut contains a tree edge, so a triple
   is found from its smallest tree edge t and the pair x < y beside it. *)
let iter_collisions lab ~size f =
  let classes = Hashtbl.create 64 in
  Bitset.iter
    (fun id ->
      let l = lab.label.(id) in
      Hashtbl.replace classes l
        (id :: Option.value ~default:[] (Hashtbl.find_opt classes l)))
    lab.h;
  let class_of l = Option.value ~default:[] (Hashtbl.find_opt classes l) in
  match size with
  | 2 ->
    (* classes hold decreasing ids *)
    let rec pairs = function
      | [] -> ()
      | b :: rest -> List.iter (fun a -> f [ a; b ]) rest; pairs rest
    in
    Hashtbl.iter (fun _ ids -> pairs ids) classes
  | 3 ->
    let after t e = e > t || not lab.is_tree.(e) in
    Bitset.iter
      (fun t ->
        if lab.is_tree.(t) then
          Bitset.iter
            (fun x ->
              if after t x then
                List.iter
                  (fun y ->
                    if y > x && after t y then
                      f
                        (if t < x then [ t; x; y ]
                         else if t < y then [ x; t; y ]
                         else [ x; y; t ]))
                  (class_of (lab.label.(t) lxor lab.label.(x))))
            lab.h)
      lab.h
  | _ -> invalid_arg "Min_cut_enum: label census needs size 2 or 3"

(* Is [ids] exactly δ(S) in H for some S ∋ 0? Deleting [ids] splits the
   connected H into components, and [ids] is a cut iff its edges join
   distinct components and 2-colour them; S is vertex 0's colour class.
   [scratch] holds H and is restored. *)
let confirm g scratch ids =
  List.iter (Bitset.remove scratch) ids;
  let comp = Graph.components ~mask:scratch g in
  List.iter (Bitset.add scratch) ids;
  let ends =
    List.map (fun e -> (comp.(Graph.edge_u g e), comp.(Graph.edge_v g e))) ids
  in
  if List.exists (fun (a, b) -> a = b) ends then None
  else begin
    (* at most |ids| + 1 components, numbered from vertex 0's; a path in
       the component graph has at most |ids| edges *)
    let colour = Array.make (List.length ids + 1) (-1) in
    colour.(0) <- 0;
    List.iter
      (fun _ ->
        List.iter
          (fun (a, b) ->
            if colour.(a) >= 0 && colour.(b) < 0 then
              colour.(b) <- 1 - colour.(a)
            else if colour.(b) >= 0 && colour.(a) < 0 then
              colour.(a) <- 1 - colour.(b))
          ends)
      ids;
    if List.exists (fun (a, b) -> colour.(a) = colour.(b)) ends then None
    else begin
      let side = Bitset.create (Graph.n g) in
      Array.iteri (fun v c -> if colour.(c) = 0 then Bitset.add side v) comp;
      Some side
    end
  end

let census ?bits ?mask ~rng g ~size =
  if size < 1 || size > 3 then
    invalid_arg "Min_cut_enum.census: size must be 1, 2 or 3";
  if size = 1 then begin
    if not (Graph.is_connected ?mask g) then
      invalid_arg "Min_cut_enum.census: the subgraph is not connected";
    enumerate_bridges ?mask g
  end
  else begin
    let lab = label_h ?bits ?mask ~rng g in
    let scratch = Bitset.copy lab.h in
    let out = ref [] in
    iter_collisions lab ~size (fun ids ->
        match confirm g scratch ids with
        | Some side -> out := { edge_ids = ids; side } :: !out
        | None -> ());
    List.sort (fun a b -> compare a.edge_ids b.edge_ids) !out
  end

let collisions ?bits ?mask ~rng g ~size =
  let lab = label_h ?bits ?mask ~rng g in
  let out = ref [] in
  iter_collisions lab ~size (fun ids -> out := ids :: !out);
  List.sort compare !out

let lambda_upto ?mask ~rng g ~upper =
  if upper < 3 || upper > 4 then
    invalid_arg "Min_cut_enum.lambda_upto: upper must be 3 or 4";
  let lab =
    label_connected ~rng g
      (match mask with Some s -> s | None -> Graph.all_edges_mask g)
  in
  let scratch = Bitset.copy lab.h in
  let has_cut size =
    match
      iter_collisions lab ~size (fun ids ->
          if confirm g scratch ids <> None then raise_notrace Exit)
    with
    | () -> false
    | exception Exit -> true
  in
  if has_cut 2 then 2 else if upper = 3 || not (has_cut 3) then upper else 3

let min_cuts ?mask ~rng g ~size =
  if size = 1 then ("bridges", enumerate_bridges ?mask g)
  else if size <= 3 then ("labels", census ?mask ~rng g ~size)
  else if Graph.n g <= 16 then ("exhaustive", enumerate_exhaustive ?mask g ~size)
  else ("karger", enumerate ?mask ~rng g ~size)
