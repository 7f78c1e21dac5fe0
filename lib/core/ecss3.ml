open Kecss_graph
open Kecss_congest
open Kecss_obs
module Labels = Kecss_cycle_space.Labels

type config = { m_phase : int; max_iterations : int; bits : int }

let default_config n =
  let l = max 1 (Cover.log2_ceil (n + 1)) in
  { m_phase = 1; max_iterations = (20 * l * l * l) + 500; bits = Labels.default_bits }

type result = {
  solution : Bitset.t;
  h : Bitset.t;
  augmentation : Bitset.t;
  iterations : int;
  phases : int;
  repaired : int;
  edge_count : int;
}

(* O(D): agree on the maximum rounded cost-effectiveness over the tree *)
let charge_level_agreement ledger forest =
  ignore
    (Prim.wave_up ledger forest ~value:(fun _ kids ->
         [| List.fold_left (fun acc k -> max acc k.(0)) 0 kids |]));
  ignore
    (Prim.wave_down ledger forest
       ~root_value:(fun _ -> [| 0 |])
       ~derive:(fun _ ~parent_value -> parent_value))

(* the common §5 augmentation loop, shared by the unweighted (BFS-tree)
   algorithm of Theorem 1.3 and the weighted (MST) variant of §5.4 *)
let augment_core ?config ledger rng g ~tree ~h ~weight =
  let tr = Rounds.trace ledger in
  let n = Graph.n g in
  let m = Graph.m g in
  let config = match config with Some c -> c | None -> default_config n in
  let forest = Forest.of_rooted_tree tree in
  let a = Graph.no_edges_mask g in
  let h_and_a () =
    let u = Bitset.copy h in
    Bitset.union_into u a;
    u
  in
  let height = Array.fold_left max 0 (Array.map (Rooted_tree.depth tree) (Rooted_tree.preorder tree)) in
  (* static per-candidate data, computed once: the ids outside H in
     ascending order, their weights, and the §5.3 exchange path lengths
     (tree depths never change) — iterations then scan only candidates *)
  let cand =
    Array.of_list (List.filter (fun e -> not (Bitset.mem h e)) (List.init m Fun.id))
  in
  let cand_w = Array.map weight cand in
  let depth = Rooted_tree.depth tree in
  let exch_len =
    Array.init m (fun e -> 1 + min (depth (Graph.edge_u g e)) (depth (Graph.edge_v g e)))
  in
  let cand_level = Array.make (max 1 m) Cost.useless in
  let iterations = ref 0 in
  let level_cap = ref max_int in
  let sched =
    Cover.schedule ~trace:tr ~algo:"ecss3" ~candidates:m
      ~phase_len:(config.m_phase * Cover.log2_ceil (n + 1))
  in
  Events.instance_size tr ~algo:"ecss3" ~n;
  let finished = ref false in
  while not !finished do
    (* fresh circulation of H ∪ A — the distributed O(D) wave of §5.1 *)
    let labels =
      Labels.compute_distributed ~bits:config.bits ledger (Rng.split rng)
        ~forest tree ~h_mask:(h_and_a ())
    in
    if Labels.is_three_edge_connected labels then finished := true
    else if !iterations >= config.max_iterations then finished := true
    else begin
      incr iterations;
      Events.iteration_begin tr ~algo:"ecss3" ~index:!iterations;
      (* dissemination charges of §5.3: root-path labels down the tree,
         path exchange across candidate edges, pipelined n_φ(t) upcast *)
      ignore
        (Prim.down_pipeline ~record:false ledger forest ~emit:(fun v ->
             let pe = Rooted_tree.parent_edge tree v in
             if pe < 0 then [] else [ [| pe; Labels.label labels pe |] ]));
      Prim.edge_stream ledger g ~lengths:(fun e ->
          if Bitset.mem h e || Bitset.mem a e then 0 else exch_len.(e));
      (* the Claim 5.9 pipelined upcast of the n_φ(t) values along root
         paths: O(height) rounds with pipelining (Theorem 4.2 of [32]) *)
      Rounds.charge ledger ~category:"nphi_upcast" ((2 * height) + 2);
      (* levels — stale entries for edges meanwhile in A are harmless:
         the activation below re-checks membership before any rng draw *)
      let max_level = ref Cost.useless in
      Array.iteri
        (fun pos id ->
          if not (Bitset.mem a id) then begin
            let rho = Labels.pairs_covered labels id in
            let l = Cost.level ~covered:rho ~weight:cand_w.(pos) in
            cand_level.(id) <- l;
            if l > !max_level then max_level := l
          end)
        cand;
      let level = min !max_level !level_cap in
      charge_level_agreement ledger forest;
      if (not (Cost.is_candidate_level level)) || level < 1 then begin
        (* nothing covers anything: only phantom pairs remain *)
        finished := true;
        Events.iteration_end tr ~algo:"ecss3" ~added:0 ~remaining:0
      end
      else begin
        Cover.enter sched level;
        (* Line 3: all active candidates join A directly *)
        let added = ref [] in
        Array.iteri
          (fun pos id ->
            if
              cand_level.(id) >= level
              && (not (Bitset.mem a id))
              && Cover.activate sched rng
            then begin
              Bitset.add a id;
              added := id :: !added;
              if Trace.enabled tr then
                Events.rho_audit tr ~algo:"ecss3" ~edge:id
                  ~covered:(Labels.pairs_covered labels id)
                  ~weight:cand_w.(pos) ~level:cand_level.(id)
            end)
          cand;
        Events.candidate_census tr ~algo:"ecss3" ~level
          ~candidates:(List.length !added);
        ignore
          (Prim.broadcast_list ~record:false ledger forest ~items:(fun _ ->
               [| 0 |] :: List.map (fun e -> [| e |]) !added));
        (* probability schedule; at p = 1 the level must drop (Claim 5.12) *)
        if Cover.certain sched then level_cap := level - 1;
        Cover.advance sched;
        Events.iteration_end tr ~algo:"ecss3" ~added:(List.length !added)
          ~remaining:(-1)
      end
    end
  done;
  (* exact verification with greedy repair (one-sided errors make this a
     no-op w.h.p.; it guards the truncated runs) *)
  let repaired =
    Augk.repair tr ~algo:"ecss3" ~fail:"Ecss3: graph is not 3-edge-connected"
      ~weight g ~h ~a ~k:3
  in
  let solution = h_and_a () in
  {
    solution;
    h;
    augmentation = a;
    iterations = !iterations;
    phases = Cover.phases sched;
    repaired;
    edge_count = Bitset.cardinal solution;
  }

let solve_with ?config ledger rng g =
  Rounds.scoped ledger "ecss3" @@ fun () ->
  let start = Ecss2_unweighted.solve_with ledger g in
  augment_core ?config ledger rng g ~tree:start.Ecss2_unweighted.tree
    ~h:start.Ecss2_unweighted.h
    ~weight:(fun _ -> 1)

let solve ?config ?(seed = 1) g =
  solve_with ?config (Rounds.create ()) (Rng.create ~seed) g

let solve_weighted_with ?config ?tap_config ledger rng g =
  Rounds.scoped ledger "ecss3w" @@ fun () ->
  (* §5.4: start from a weighted 2-ECSS built on the MST; iterations then
     cost O(h_MST) instead of O(D) *)
  let start = Ecss2.solve_with ?tap_config ledger (Rng.split rng) g in
  let tree = Segments.tree start.Ecss2.segments in
  augment_core ?config ledger rng g ~tree ~h:start.Ecss2.solution
    ~weight:(Graph.weight g)

let solve_weighted ?config ?(seed = 1) g =
  solve_weighted_with ?config (Rounds.create ()) (Rng.create ~seed) g
