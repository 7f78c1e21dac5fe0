open Kecss_graph

type result = {
  tree : Rooted_tree.t;
  mask : Bitset.t;
  fragment_id : int array;
  fragment_count : int;
  global_edges : int list;
}

let none_w = max_int

exception Missing_wave_value of { vertex : int; wave : string }
exception Not_a_tree of { edges : int; n : int }

(* A wave that quiesces leaves a value at every vertex; only a
   crash-stopped vertex keeps the empty one. *)
let wave_value ~wave values v =
  match values.(v) with
  | [||] -> raise (Missing_wave_value { vertex = v; wave })
  | x -> x

(* candidates are compared lexicographically as (weight, edge id) *)
let lex_min (a : int array) (b : int array) =
  if a.(0) < b.(0) || (a.(0) = b.(0) && a.(1) <= b.(1)) then a else b

(* Each vertex's minimum outgoing candidate so far, as ints: the edge's
   weight and id ([none_w] in both while it has none) and what its far
   end sent, its fragment id and, in part 1, its head and capped bits. *)
type moe = {
  w : int array;
  e : int array;
  fid : int array;
  head : int array;
  capped : int array;
}

let moe n =
  {
    w = Array.make n none_w;
    e = Array.make n none_w;
    fid = Array.make n (-1);
    head = Array.make n 0;
    capped = Array.make n 0;
  }

(* [v] reads its neighbours' fragment ids (and bits) in place; an edge
   from another fragment that is lighter, or as light with a smaller id,
   becomes its candidate *)
let read_moe c g ~own v mail =
  let module Mail = Network.Mail in
  let m = ref (Mail.first mail) in
  while !m >= 0 do
    let edge = Mail.edge mail !m and fid = Mail.word mail !m 0 in
    let w = Graph.weight g edge in
    if fid <> own && (w < c.w.(v) || (w = c.w.(v) && edge < c.e.(v))) then begin
      c.w.(v) <- w;
      c.e.(v) <- edge;
      c.fid.(v) <- fid;
      (* part 2 sends the fragment id alone *)
      if Mail.length mail !m = 3 then begin
        c.head.(v) <- Mail.word mail !m 1;
        c.capped.(v) <- Mail.word mail !m 2
      end
    end;
    m := Mail.next mail !m
  done

let log2_ceil n =
  let rec go acc v = if v >= n then acc else go (acc + 1) (2 * v) in
  go 0 1

(* ----- part 1: controlled fragment growth ----- *)

type part1 = {
  fid : int array;
  frag_pe : int array;
  capped : bool array;
  mst : Bitset.t;
}

let distinct_count a =
  let seen = Hashtbl.create 64 in
  Array.iter (fun x -> Hashtbl.replace seen x ()) a;
  Hashtbl.length seen

let part1 ledger rng g ~cap ~bfs_forest =
  let n = Graph.n g in
  let st =
    {
      fid = Array.init n Fun.id;
      frag_pe = Array.make n (-1);
      capped = Array.make n false;
      mst = Bitset.create (Graph.m g);
    }
  in
  let phase_limit = (4 * log2_ceil (n + 1)) + 16 in
  let phase = ref 0 in
  let running = ref true in
  while
    !running
    && !phase < phase_limit
    && distinct_count st.fid > 1
    && Array.exists not st.capped
  do
    incr phase;
    Kecss_obs.Events.mst_phase (Rounds.trace ledger) ~part:1 ~phase:!phase
      ~fragments:(distinct_count st.fid);
    (* the wave forest excludes capped fragments: their vertices become
       isolated roots and never slow a wave down *)
    let wave_pe =
      Array.init n (fun v -> if st.capped.(v) then -1 else st.frag_pe.(v))
    in
    let wf = Forest.make g ~parent_edge:wave_pe in
    (* fragment sizes, then head/tail coins and capped bits, root to leaves *)
    let sizes =
      Prim.wave_up ledger wf ~value:(fun _ kids ->
          [| List.fold_left (fun acc k -> acc + k.(0)) 1 kids |])
    in
    let coin = Array.make n false in
    List.iter
      (fun r -> if not st.capped.(r) then coin.(r) <- Rng.bool rng)
      wf.Forest.roots;
    let flags =
      Prim.wave_down ledger wf
        ~root_value:(fun r ->
          let capped_now = st.capped.(r) || sizes.(r).(0) >= cap in
          [| (if capped_now then 1 else 0); (if coin.(r) then 1 else 0) |])
        ~derive:(fun _ ~parent_value -> parent_value)
    in
    for v = 0 to n - 1 do
      let f = wave_value ~wave:"capped and coin flags" flags v in
      st.capped.(v) <- f.(0) = 1;
      coin.(v) <- f.(1) = 1
    done;
    (* neighbours exchange (fragment id, head bit, capped bit); each
       vertex keeps its minimum outgoing candidate as it reads them *)
    let head v = st.capped.(v) || coin.(v) in
    let c = moe n in
    Prim.exchange_in_place ledger g
      ~post:(fun v out ->
        let payload =
          [|
            st.fid.(v);
            (if head v then 1 else 0);
            (if st.capped.(v) then 1 else 0);
          |]
        in
        for i = 0 to Graph.degree g v - 1 do
          Network.post_port out ~port:i payload
        done)
      ~read:(fun v mail -> read_moe c g ~own:st.fid.(v) v mail);
    let moes =
      Prim.wave_up ledger wf ~value:(fun v kids ->
          List.fold_left lex_min
            [| c.w.(v); c.e.(v); c.head.(v); c.capped.(v); c.fid.(v) |]
            kids)
    in
    (* tail roots of small fragments merge along their MOE into heads *)
    let merges = ref [] in
    List.iter
      (fun r ->
        if (not st.capped.(r)) && not coin.(r) then begin
          let moe = wave_value ~wave:"fragment MOEs" moes r in
          if moe.(0) <> none_w && moe.(2) = 1 then
            merges := (r, moe) :: !merges
        end)
      wf.Forest.roots;
    (* apply merges host-side; the communication is the walk + broadcast *)
    let walk_sources = ref [] in
    let old_parent = Array.copy wf.Forest.parent in
    let old_pe = Array.copy wf.Forest.parent_edge in
    (* the merging fragments' targets, by wave-forest root *)
    let target_fid = Array.make n (-1) and target_capped = Array.make n false in
    List.iter
      (fun (r, moe) ->
        let eid = moe.(1) in
        let a = Graph.edge_u g eid and b = Graph.edge_v g eid in
        let u = if st.fid.(a) = r then a else b in
        assert (st.fid.(u) = r && st.fid.(Graph.other_end g eid u) <> r);
        Bitset.add st.mst eid;
        walk_sources := u :: !walk_sources;
        (* re-root the fragment tree at u, then hang u below the MOE *)
        let rec flip x =
          let p = old_parent.(x) in
          if p >= 0 then begin
            st.frag_pe.(p) <- old_pe.(x);
            flip p
          end
        in
        flip u;
        st.frag_pe.(u) <- eid;
        target_fid.(r) <- moe.(4);
        target_capped.(r) <- moe.(3) = 1)
      !merges;
    (* then one pass hands every member of a merging fragment its
       target's id and capped bit: the loop above read the old ids, and
       fragments are disjoint, so the order is free *)
    for v = 0 to n - 1 do
      let r = wf.Forest.root_of.(v) in
      if target_fid.(r) >= 0 then begin
        st.fid.(v) <- target_fid.(r);
        st.capped.(v) <- target_capped.(r)
      end
    done;
    if !walk_sources <> [] then Prim.walk_up ledger wf ~sources:!walk_sources;
    (* members of merged fragments learn their new fragment id *)
    ignore
      (Prim.wave_down ledger wf
         ~root_value:(fun r -> [| st.fid.(r); (if st.capped.(r) then 1 else 0) |])
         ~derive:(fun _ ~parent_value -> parent_value));
    (* global termination test over the BFS tree *)
    let small_left =
      Prim.wave_up ledger bfs_forest ~value:(fun v kids ->
          let own = if st.capped.(v) then 0 else 1 in
          [| List.fold_left (fun acc k -> max acc k.(0)) own kids |])
    in
    let stop =
      (wave_value ~wave:"termination test" small_left
         (List.hd bfs_forest.Forest.roots)).(0)
      = 0
    in
    ignore
      (Prim.wave_down ledger bfs_forest
         ~root_value:(fun _ -> [| (if stop then 1 else 0) |])
         ~derive:(fun _ ~parent_value -> parent_value));
    if stop then running := false
  done;
  st

(* ----- part 2: root-resolved Borůvka over the BFS tree ----- *)

let part2 ledger g ~bfs_forest (st : part1) =
  let n = Graph.n g in
  let bfs_root = List.hd bfs_forest.Forest.roots in
  let fid = Array.copy st.fid in
  let safety = (2 * log2_ceil (n + 1)) + 8 in
  let phase = ref 0 in
  while distinct_count fid > 1 && !phase < safety do
    incr phase;
    Kecss_obs.Events.mst_phase (Rounds.trace ledger) ~part:2 ~phase:!phase
      ~fragments:(distinct_count fid);
    let c = moe n in
    Prim.exchange_in_place ledger g
      ~post:(fun v out ->
        for i = 0 to Graph.degree g v - 1 do
          Network.post1_port out ~port:i fid.(v)
        done)
      ~read:(fun v mail -> read_moe c g ~own:fid.(v) v mail);
    let emit v =
      if c.w.(v) = none_w then [] else [ (fid.(v), [| c.w.(v); c.e.(v) |]) ]
    in
    let merged = Prim.up_pipeline_merge ledger bfs_forest ~emit ~combine:lex_min in
    let entries = merged.(bfs_root) in
    (* the BFS root resolves this Borůvka phase locally *)
    let idx = Hashtbl.create 64 in
    List.iteri (fun i (k, _) -> Hashtbl.replace idx k i) entries;
    let uf = Union_find.create (List.length entries) in
    let chosen = Hashtbl.create 64 in
    List.iter
      (fun (k, payload) ->
        let eid = payload.(1) in
        Hashtbl.replace chosen eid ();
        let a = Graph.edge_u g eid and b = Graph.edge_v g eid in
        let other = if fid.(a) = k then fid.(b) else fid.(a) in
        Union_find.union uf (Hashtbl.find idx k) (Hashtbl.find idx other)
        |> ignore)
      entries;
    (* representative fid of a component: minimum member fid *)
    let rep = Hashtbl.create 64 in
    List.iter
      (fun (k, _) ->
        let r = Union_find.find uf (Hashtbl.find idx k) in
        let cur = Option.value ~default:max_int (Hashtbl.find_opt rep r) in
        Hashtbl.replace rep r (min cur k))
      entries;
    let items _root =
      List.map
        (fun (k, payload) ->
          let r = Union_find.find uf (Hashtbl.find idx k) in
          [| k; Hashtbl.find rep r; payload.(1) |])
        entries
    in
    let received = Prim.broadcast_list ledger bfs_forest ~items in
    Hashtbl.iter (fun eid () -> Bitset.add st.mst eid) chosen;
    (* every vertex looks its fragment up in the broadcast merge map *)
    for v = 0 to n - 1 do
      List.iter
        (fun (_, payload) -> if payload.(0) = fid.(v) then fid.(v) <- payload.(1))
        received.(v)
    done
  done;
  if distinct_count fid > 1 then failwith "Mst.run: part 2 failed to converge"

let run ?cap ledger rng g =
  Rounds.scoped ledger "mst" @@ fun () ->
  let n = Graph.n g in
  let cap =
    match cap with
    | Some c -> max 2 c
    | None -> max 2 (int_of_float (ceil (sqrt (float_of_int n))))
  in
  let bfs = Prim.bfs_tree ledger g ~root:0 in
  let bfs_forest = Forest.of_rooted_tree bfs in
  let st = part1 ledger rng g ~cap ~bfs_forest in
  let fragment_id = Array.copy st.fid in
  part2 ledger g ~bfs_forest st;
  let edges = Bitset.cardinal st.mst in
  if edges <> n - 1 then raise (Not_a_tree { edges; n });
  let tree = Rooted_tree.of_mask g ~root:0 st.mst in
  let global_edges =
    Bitset.fold
      (fun eid acc ->
        let a = Graph.edge_u g eid and b = Graph.edge_v g eid in
        if fragment_id.(a) <> fragment_id.(b) then eid :: acc else acc)
      st.mst []
    |> List.sort compare
  in
  {
    tree;
    mask = st.mst;
    fragment_id;
    fragment_count = distinct_count fragment_id;
    global_edges;
  }
