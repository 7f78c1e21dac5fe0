open Kecss_graph
open Kecss_connectivity
open Kecss_congest
open Kecss_obs

type config = { m_phase : int; max_iterations : int; use_mst_filter : bool }

let default_config n =
  let l = max 1 (Cover.log2_ceil (n + 1)) in
  { m_phase = 1; max_iterations = (20 * l * l * l) + 500; use_mst_filter = true }

type result = {
  augmentation : Bitset.t;
  iterations : int;
  phases : int;
  cut_count : int;
  repaired : int;
  active_weight : int;
}

(* Kruskal on the filter weights (A ↦ 0, active ↦ 1, rest ↦ 2), with edge-id
   tie-break: the same tree the distributed MST of Line 4 computes.
   Edge ids are ascending, so three class passes visit the edges in exactly
   the (filter weight, id) order a sort would produce — no per-iteration
   O(m log m) re-sort, and no edge records materialised. *)
let filter_mst g ~a ~active =
  let n = Graph.n g in
  let m = Graph.m g in
  let uf = Union_find.create n in
  let chosen = Hashtbl.create 64 in
  let pass keep =
    for e = 0 to m - 1 do
      if keep e then
        if Union_find.union uf (Graph.edge_u g e) (Graph.edge_v g e) then
          Hashtbl.replace chosen e ()
    done
  in
  pass (fun id -> Bitset.mem a id);
  pass (fun id -> (not (Bitset.mem a id)) && Bitset.mem active id);
  pass (fun id -> not (Bitset.mem a id || Bitset.mem active id));
  chosen

(* per-iteration distributed cost beside the MST filter: broadcast of the
   edges added this iteration and O(D) agreement on the maximum level *)
let charge_iteration ledger ~bfs_forest ~added =
  ignore
    (Prim.wave_up ledger bfs_forest ~value:(fun _ kids ->
         [| List.fold_left (fun acc k -> max acc k.(0)) 0 kids |]));
  ignore
    (Prim.broadcast_list ~record:false ledger bfs_forest ~items:(fun _ ->
         [| 0 |] :: List.map (fun e -> [| e |]) added))

let repair tr ~algo ~fail ~weight g ~h ~a ~k =
  let h_and_a () =
    let u = Bitset.copy h in
    Bitset.union_into u a;
    u
  in
  let repaired = ref 0 in
  while not (Edge_connectivity.is_k_edge_connected ~mask:(h_and_a ()) g k) do
    incr repaired;
    if !repaired > Graph.m g then failwith fail;
    let _, side, _ = Edge_connectivity.global_min_cut ~mask:(h_and_a ()) g in
    (* the lightest crossing edge; ascending ids break weight ties *)
    let best = ref (-1) in
    for e = 0 to Graph.m g - 1 do
      if
        (not (Bitset.mem h e || Bitset.mem a e))
        && Bitset.mem side (Graph.edge_u g e) <> Bitset.mem side (Graph.edge_v g e)
        && (!best < 0 || weight e < weight !best)
      then best := e
    done;
    if !best < 0 then failwith fail;
    Bitset.add a !best;
    Events.repair tr ~algo ~edge:!best
  done;
  !repaired

let cut_problem g ~h cuts =
  {
    Cover.elements = Array.length cuts;
    candidates = Graph.m g;
    weight = Graph.weight g;
    covered_by =
      (fun e f ->
        if not (Bitset.mem h e) then
          Array.iteri (fun ci cut -> if Min_cut_enum.covers g cut e then f ci) cuts);
  }

let augment ?config ledger rng ~bfs_forest g ~h ~k =
  Rounds.scoped ledger "augk" @@ fun () ->
  let tr = Rounds.trace ledger in
  let n = Graph.n g in
  let m = Graph.m g in
  let config = match config with Some c -> c | None -> default_config n in
  (* min(λ(H), k), once (the census at k = 3 and 4, on its own fixed
     seed, so the solver's rng does not move) *)
  let lam = Edge_connectivity.lambda ~mask:h ~upper:k g in
  if lam >= k then
    {
      augmentation = Graph.no_edges_mask g;
      iterations = 0;
      phases = 0;
      cut_count = 0;
      repaired = 0;
      active_weight = 0;
    }
  else begin
    if lam < k - 1 then
      invalid_arg "Augk.augment: H is not (k-1)-edge-connected";
    (* the vertices learn H over the BFS tree (the O(kn)-edge invariant) *)
    ignore
      (Prim.broadcast_list ~record:false ledger bfs_forest ~items:(fun _ ->
           List.map (fun e -> [| e |]) (Bitset.elements h)));
    (* enumerate the size-(k-1) cuts of H — every vertex does this
       locally: exactly from the labels up to size 3, by Karger beyond *)
    let cuts =
      let rng = Rng.split rng in
      Array.of_list
        (if k <= 4 then Min_cut_enum.census ~mask:h ~rng g ~size:(k - 1)
         else Min_cut_enum.enumerate ~mask:h ~rng g ~size:(k - 1))
    in
    let problem = cut_problem g ~h cuts in
    (* Line 4: the filter keeps the active candidates the MST under the
       filter weights picks *)
    let filter st active = Hashtbl.mem (filter_mst g ~a:(Cover.chosen st) ~active) in
    (* the measured round cost of the distributed MST filter: one real
       message-level MST on the first iteration's filter weights, charged
       to every iteration (same protocol and topology; only weights
       change, which does not affect the phase structure) *)
    let mst_rounds = ref None in
    (* §4.2's A': every edge ever active, however often it activates *)
    let ever_active = Bitset.create (max 1 m) in
    let charge st = function
      | Cover.Committed { active; added } ->
        Bitset.union_into ever_active active;
        if !mst_rounds = None then begin
          let a = Cover.chosen st in
          let weights e =
            if Bitset.mem a e.Graph.id then 0
            else if Bitset.mem active e.Graph.id then 1
            else 2
          in
          let probe = Rounds.create () in
          ignore (Mst.run probe (Rng.split rng) (Graph.map_weights weights g));
          mst_rounds := Some (Rounds.total probe)
        end;
        Rounds.charge ledger ~category:"mst_filter" (Option.get !mst_rounds);
        charge_iteration ledger ~bfs_forest ~added
      | Cover.Start | Cover.Agreed _ -> ()
    in
    Trace.instant tr "cut census"
      ~args:[ ("cuts", Trace.Int (Array.length cuts)); ("k", Trace.Int k) ];
    let a, iterations, phases =
      match
        Cover.solve ~trace:tr ~algo:"augk" ~size:n
          ~max_iterations:config.max_iterations
          ?filter:(if config.use_mst_filter then Some filter else None)
          ~charge rng problem
          (Cover.Guessing { m_phase = config.m_phase })
      with
      | r -> (r.Cover.chosen, r.Cover.iterations, r.Cover.phases)
      | exception Invalid_argument _ ->
        (* a cut no edge outside H crosses: G is not k-edge-connected,
           which the repair net below reports *)
        (Graph.no_edges_mask g, 0, 0)
    in
    (* exact termination check with greedy repair (Lemma-4.5 failures) *)
    let repaired =
      repair tr ~algo:"augk" ~fail:"Augk.augment: graph is not k-edge-connected"
        ~weight:(Graph.weight g) g ~h ~a ~k
    in
    {
      augmentation = a;
      iterations;
      phases;
      cut_count = Array.length cuts;
      repaired;
      active_weight = Graph.mask_weight g ever_active;
    }
  end
