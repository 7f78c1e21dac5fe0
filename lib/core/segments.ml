open Kecss_graph
open Kecss_congest

type seg = {
  index : int;
  r : int;
  d : int;
  highway : int list;
  members : int list;
}

type t = {
  tree : Rooted_tree.t;
  segs : seg array;
  marked : bool array;
  seg_of_vertex_ : int array;
  seg_of_tree_edge_by_lower : int array;
  highway_edge : bool array;
  skeleton_parent_ : int array;
  segment_of_d_ : int array;
  membership : int list array;
  wave_forest_ : Forest.t;
}

(* decomposition-quality event (the Lemma 3.4 quantities); the height
   computation is skipped entirely on a disabled trace *)
let stats_event tr t =
  if Kecss_obs.Trace.enabled tr then
    let marked =
      Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 t.marked
    in
    let max_height =
      Array.fold_left
        (fun acc s ->
          let dr = Rooted_tree.depth t.tree s.r in
          List.fold_left
            (fun acc v -> max acc (Rooted_tree.depth t.tree v - dr))
            acc s.members)
        0 t.segs
    in
    Kecss_obs.Events.segment_stats tr ~segments:(Array.length t.segs) ~marked
      ~max_height

let build ledger ~bfs_forest (mst : Mst.result) =
  Rounds.scoped ledger "segments" @@ fun () ->
  let tree = mst.Mst.tree in
  let g = Rooted_tree.graph tree in
  let n = Graph.n g in
  let root = Rooted_tree.root tree in
  (* every vertex learns the O(√n) global edges over the BFS tree *)
  let global_items _ =
    List.map
      (fun eid ->
        let u, v = Graph.endpoints g eid in
        [| u; v; eid |])
      mst.Mst.global_edges
  in
  ignore
    (Prim.broadcast_list ~record:false ledger bfs_forest ~items:global_items);
  (* fragment forest: the MST minus the global edges *)
  let is_global = Hashtbl.create 64 in
  List.iter (fun e -> Hashtbl.replace is_global e ()) mst.Mst.global_edges;
  let frag_pe =
    Array.init n (fun v ->
        let pe = Rooted_tree.parent_edge tree v in
        if pe < 0 || Hashtbl.mem is_global pe then -1 else pe)
  in
  let frag_forest = Forest.make g ~parent_edge:frag_pe in
  (* marking: global-edge endpoints and the root, then the LCA-closure
     wave of §3.2(II), executed as a real leaves-to-root wave *)
  let marked = Array.make n false in
  marked.(root) <- true;
  List.iter
    (fun eid ->
      let u, v = Graph.endpoints g eid in
      marked.(u) <- true;
      marked.(v) <- true)
    mst.Mst.global_edges;
  ignore
    (Prim.wave_up ledger frag_forest ~value:(fun v kids ->
         let ids = List.filter (fun k -> k.(0) >= 0) kids in
         if marked.(v) then [| v |]
         else
           match ids with
           | [] -> [| -1 |]
           | [ k ] -> k
           | k :: _ ->
             (* v hears of two marked descendants: it is their LCA *)
             marked.(v) <- true;
             k));
  (* topmost marked vertex in each subtree (unique below unmarked
     vertices, by LCA-closure), and nearest marked proper ancestor *)
  let order = Rooted_tree.preorder tree in
  let topmost = Array.make n (-1) in
  for i = n - 1 downto 0 do
    let v = order.(i) in
    if marked.(v) then topmost.(v) <- v
    else
      List.iter
        (fun c -> if topmost.(c) >= 0 then topmost.(v) <- topmost.(c))
        (Rooted_tree.children tree v)
  done;
  let nma = Array.make n (-1) in
  Array.iter
    (fun v ->
      if v <> root then begin
        let p = Rooted_tree.parent tree v in
        nma.(v) <- (if marked.(p) then p else nma.(p))
      end)
    order;
  (* highway segments: one per marked vertex other than the root *)
  let segs = ref [] in
  let seg_count = ref 0 in
  let segment_of_d = Array.make n (-1) in
  let skeleton_parent = Array.make n (-1) in
  let members_acc = Hashtbl.create 64 in
  let add_member s v =
    Hashtbl.replace members_acc s (v :: Option.value ~default:[] (Hashtbl.find_opt members_acc s))
  in
  let highway_edge = Array.make (Graph.m g) false in
  for v = 0 to n - 1 do
    if marked.(v) && v <> root then begin
      let r = nma.(v) in
      let rec path_up x acc =
        if x = r then acc else path_up (Rooted_tree.parent tree x) (Rooted_tree.parent_edge tree x :: acc)
      in
      let highway = path_up v [] in
      List.iter (fun e -> highway_edge.(e) <- true) highway;
      let index = !seg_count in
      incr seg_count;
      segment_of_d.(v) <- index;
      skeleton_parent.(v) <- r;
      segs := (index, r, v, highway) :: !segs;
      add_member index r;
      add_member index v
    end
  done;
  (* attach every unmarked vertex to its segment *)
  let seg_of_vertex = Array.make n (-1) in
  let root_segment = Array.make n (-1) in
  (* for marked p: the segment absorbing p's highway-free subtrees *)
  List.iter
    (fun (index, r, _, _) ->
      if root_segment.(r) < 0 then root_segment.(r) <- index)
    (List.rev !segs);
  let seg_of_tree_edge_by_lower = Array.make n (-1) in
  Array.iter
    (fun v ->
      if not marked.(v) then begin
        let s =
          if topmost.(v) >= 0 then segment_of_d.(topmost.(v))
          else begin
            let p = Rooted_tree.parent tree v in
            if marked.(p) then begin
              if root_segment.(p) < 0 then begin
                (* fresh highway-less segment (p, p) *)
                let index = !seg_count in
                incr seg_count;
                segs := (index, p, p, []) :: !segs;
                add_member index p;
                root_segment.(p) <- index
              end;
              root_segment.(p)
            end
            else seg_of_vertex.(p)
          end
        in
        seg_of_vertex.(v) <- s;
        add_member s v;
        seg_of_tree_edge_by_lower.(v) <- s
      end
      else if v <> root then seg_of_tree_edge_by_lower.(v) <- segment_of_d.(v))
    order;
  let segs_arr =
    List.rev !segs
    |> List.map (fun (index, r, d, highway) ->
           {
             index;
             r;
             d;
             highway;
             members =
               List.sort_uniq compare
                 (Option.value ~default:[] (Hashtbl.find_opt members_acc index));
           })
    |> Array.of_list
  in
  Array.sort (fun a b -> compare a.index b.index) segs_arr;
  let membership = Array.make n [] in
  Array.iter
    (fun s -> List.iter (fun v -> membership.(v) <- s.index :: membership.(v)) s.members)
    segs_arr;
  Array.iteri (fun v ms -> membership.(v) <- List.sort_uniq compare ms) membership;
  let wave_pe =
    Array.init n (fun v ->
        if marked.(v) then -1 else Rooted_tree.parent_edge tree v)
  in
  let wave_forest_ = Forest.make g ~parent_edge:wave_pe in
  (* charge the Claim 3.1 dissemination: segment ids over the BFS tree,
     root-path pipelines inside segments, and the d-to-r report wave *)
  let seg_items _ = Array.to_list (Array.map (fun s -> [| s.r; s.d |]) segs_arr) in
  ignore (Prim.broadcast_list ~record:false ledger bfs_forest ~items:seg_items);
  ignore
    (Prim.down_pipeline ~record:false ledger wave_forest_ ~emit:(fun v ->
         let pe = Rooted_tree.parent_edge tree v in
         if pe < 0 then [] else [ [| pe |] ]));
  ignore
    (Prim.wave_up ledger wave_forest_ ~value:(fun v kids ->
         [| List.fold_left (fun acc k -> max acc k.(0)) v kids |]));
  let t =
    {
      tree;
      segs = segs_arr;
      marked;
      seg_of_vertex_ = seg_of_vertex;
      seg_of_tree_edge_by_lower;
      highway_edge;
      skeleton_parent_ = skeleton_parent;
      segment_of_d_ = segment_of_d;
      membership;
      wave_forest_;
    }
  in
  stats_event (Rounds.trace ledger) t;
  t

let tree t = t.tree
let count t = Array.length t.segs
let iter f t = Array.iter f t.segs
let is_marked t v = t.marked.(v)

let marked_count t =
  Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 t.marked

let seg_of_vertex t v = t.seg_of_vertex_.(v)

let seg_of_tree_edge t e =
  if not (Rooted_tree.is_tree_edge t.tree e) then
    invalid_arg "Segments.seg_of_tree_edge: not a tree edge";
  t.seg_of_tree_edge_by_lower.(Rooted_tree.lower_endpoint t.tree e)

let on_highway t e = t.highway_edge.(e)

let skeleton_parent t v =
  if not t.marked.(v) then invalid_arg "Segments.skeleton_parent: unmarked";
  t.skeleton_parent_.(v)

let segment_of_d t v =
  if t.segment_of_d_.(v) < 0 then
    invalid_arg "Segments.segment_of_d: not a segment descendant";
  t.segment_of_d_.(v)

let wave_forest t = t.wave_forest_
let segments_at t v = t.membership.(v)

let in_same_segment t u v =
  List.exists (fun s -> List.mem s t.membership.(v)) t.membership.(u)

let max_segment_height t =
  Array.fold_left
    (fun acc s ->
      let dr = Rooted_tree.depth t.tree s.r in
      List.fold_left
        (fun acc v -> max acc (Rooted_tree.depth t.tree v - dr))
        acc s.members)
    0 t.segs

let pp ppf t =
  Format.fprintf ppf "@[<v>decomposition: %d segments, %d marked vertices@,"
    (count t) (marked_count t);
  iter
    (fun s ->
      Format.fprintf ppf "  S%d: r=%d d=%d highway=[%s] members={%s}@," s.index
        s.r s.d
        (String.concat ";" (List.map string_of_int s.highway))
        (String.concat "," (List.map string_of_int s.members)))
    t;
  Format.fprintf ppf "  skeleton:";
  Array.iteri
    (fun v m ->
      if m && v <> Rooted_tree.root t.tree then
        Format.fprintf ppf " %d->%d" v t.skeleton_parent_.(v))
    t.marked;
  Format.fprintf ppf "@]"
