open Kecss_graph
open Kecss_congest
open Kecss_core
module Labels = Kecss_cycle_space.Labels
module Cut_pairs_exact = Kecss_cycle_space.Cut_pairs_exact
module Baselines = Kecss_baselines

type output = { tables : Table.t list; text : string option }

type exp = {
  id : string;
  title : string;
  paper_claim : string;
  quick : bool;
  run : unit -> output;
}

let log2f x = log (float_of_int x) /. log 2.0
let sqrtf n = sqrt (float_of_int n)
let fi = float_of_int

let alg_seed = 1

(* ------------------------------------------------------------------ *)
(* instrumentation                                                     *)
(* ------------------------------------------------------------------ *)

(* The run's probe and each ledger's fault hook, registered together by
   the CLI (see [set_probe]). *)
let probe = ref Kecss_obs.Probe.noop
let hook = ref (fun (_ : Kecss_obs.Probe.t) -> None)

let set_probe p ~hook:h =
  probe := p;
  hook := h

(* A ledger's own probe: a fork of the run's, always with an engine
   metrics collector of its own, which the snapshot tables read. *)
let ledger_probe () =
  let open Kecss_obs in
  let p = Probe.fork !probe in
  if Metrics.enabled (Probe.metrics p) then p
  else
    Probe.create ~trace:(Probe.trace p) ~metrics:(Metrics.create ())
      ~prof:(Probe.prof p) ~causal:(Probe.causal p) ()

(* Independent experiment cells on the pool: [par_cells f xs] computes
   [f ledger x] for every workload cell and returns the results in list
   order, so tables and snapshot rows are appended in the same canonical
   order as the sequential elaboration. Cells must be self-contained —
   own rng streams, own ledgers from [ledger ()]. Each such ledger
   records into its own fork of the run's probe; the forks are joined
   back cell by cell, in creation order within a cell, so the run's
   telemetry is that of a sequential run at any [--jobs]. *)
let par_cells f xs =
  let cells = Array.of_list xs in
  let n = Array.length cells in
  let forks = Array.make n [] in
  let ledger i () =
    let p = ledger_probe () in
    forks.(i) <- p :: forks.(i);
    Rounds.of_probe p ~hook:(!hook p)
  in
  let out = Array.make n None in
  Kecss_par.Pool.parallel_for ~chunk:1 n (fun i ->
      out.(i) <- Some (f (ledger i) cells.(i)));
  Array.iter
    (fun ps -> List.iter (Kecss_obs.Probe.join !probe) (List.rev ps))
    forks;
  Array.to_list (Array.map Option.get out)

let snapshot_columns =
  [
    "instance"; "rounds"; "msgs"; "peak msgs/rnd"; "mean active"; "peak active";
    "hot-edge msgs"; "engine runs";
  ]

let snapshot_row label (m : Kecss_obs.Metrics.t) : Table.cell list =
  let s = Kecss_obs.Metrics.summary m in
  [
    S label; I s.Kecss_obs.Metrics.rounds; I s.Kecss_obs.Metrics.messages;
    I s.Kecss_obs.Metrics.peak_round_messages;
    F s.Kecss_obs.Metrics.mean_active; I s.Kecss_obs.Metrics.peak_active;
    I s.Kecss_obs.Metrics.hottest_edge_messages; I s.Kecss_obs.Metrics.runs;
  ]

let snapshot_table ~title rows =
  let t = Table.create ~title:(title ^ " — telemetry snapshot") ~columns:snapshot_columns in
  List.iter (Table.add_row t) rows;
  Table.note t
    "round-level series collected inside Network.run_counted; 'rounds' is \
     counted engine rounds, which excludes the analytically charged \
     pipelines";
  t

(* ------------------------------------------------------------------ *)
(* Theorem 1.1 — rounds                                                *)
(* ------------------------------------------------------------------ *)

let t11_rounds () =
  let t =
    Table.create ~title:"2-ECSS rounds vs O((D+sqrt n) log^2 n)  [Thm 1.1]"
      ~columns:
        [ "family"; "n"; "m"; "D"; "rounds"; "iters"; "bound"; "rounds/bound" ]
  in
  let cell ledger (family, g) =
    let n = Graph.n g in
    let d = Graph.diameter g in
    let ledger = ledger () in
    let r = Ecss2.solve_with ledger (Rng.create ~seed:alg_seed) g in
    let snap =
      snapshot_row (Printf.sprintf "%s n=%d" family n) (Rounds.metrics ledger)
    in
    let bound = (fi d +. sqrtf n) *. log2f n *. log2f n in
    let row : Table.cell list =
      [
        S family; I n; I (Graph.m g); I d; I r.Ecss2.rounds;
        I r.Ecss2.tap.Tap.iterations; F bound; F (fi r.Ecss2.rounds /. bound);
      ]
    in
    (row, snap)
  in
  let cells =
    List.map
      (fun n -> ("circulant(1,2) high-D", Workloads.weighted_circulant ~n))
      [ 64; 128; 256; 512 ]
    @ List.map
        (fun n -> ("random low-D", Workloads.weighted_random ~n ~k:2))
        [ 64; 128; 256; 512 ]
  in
  let results = par_cells cell cells in
  List.iter (fun (row, _) -> Table.add_row t row) results;
  Table.note t
    "rounds/bound should stay roughly flat across n within each family";
  { tables = [ t; snapshot_table ~title:"2-ECSS" (List.map snd results) ];
    text = None }

(* ------------------------------------------------------------------ *)
(* Theorem 1.1 — approximation                                         *)
(* ------------------------------------------------------------------ *)

let t11_approx () =
  let exact =
    Table.create ~title:"2-ECSS vs exact optimum (tiny instances)  [Thm 1.1]"
      ~columns:[ "instance"; "n"; "w(alg)"; "w(opt)"; "ratio" ]
  in
  for s = 1 to 4 do
    let g = Workloads.tiny_exact ~seed:s in
    let r = Ecss2.solve ~seed:alg_seed g in
    match Baselines.Exact.kecss g ~k:2 with
    | None -> ()
    | Some opt ->
      let ow = Graph.mask_weight g opt in
      let aw = Graph.mask_weight g r.Ecss2.solution in
      Table.add_row exact
        [
          S (Printf.sprintf "tiny-%d" s); I (Graph.n g); I aw; I ow;
          F (fi aw /. fi ow);
        ]
  done;
  let big =
    Table.create
      ~title:"2-ECSS vs degree lower bound and sequential greedy  [Thm 1.1]"
      ~columns:
        [
          "family"; "n"; "w(alg)"; "w(greedy)"; "LB"; "alg/LB"; "(alg/LB)/ln n";
        ]
  in
  let run family g =
    let n = Graph.n g in
    let r = Ecss2.solve ~seed:alg_seed g in
    let aw = Graph.mask_weight g r.Ecss2.solution in
    let gw = Graph.mask_weight g (Baselines.Greedy.kecss g ~k:2) in
    let lb = Baselines.Lower_bound.degree g ~k:2 in
    Table.add_row big
      [
        S family; I n; I aw; I gw; I lb; F (fi aw /. fi lb);
        F (fi aw /. fi lb /. log (fi n));
      ]
  in
  List.iter
    (fun n -> run "circulant(1,2)" (Workloads.weighted_circulant ~n))
    [ 64; 128; 256 ];
  List.iter
    (fun n -> run "random" (Workloads.weighted_random ~n ~k:2))
    [ 64; 128; 256 ];
  Table.note big
    "alg/LB is an upper bound on the true ratio; the normalized column \
     should not grow with n";
  { tables = [ exact; big ]; text = None }

(* ------------------------------------------------------------------ *)
(* Theorem 1.2 — rounds and approximation                              *)
(* ------------------------------------------------------------------ *)

let t12_rounds () =
  let t =
    Table.create ~title:"k-ECSS rounds vs O(k (D log^3 n + n))  [Thm 1.2]"
      ~columns:[ "k"; "n"; "D"; "rounds"; "iters"; "bound"; "rounds/bound" ]
  in
  let cell ledger (k, n) =
    let g = Workloads.weighted_random ~n ~k in
    let d = Graph.diameter g in
    let ledger = ledger () in
    let r = Kecss.solve_with ledger (Rng.create ~seed:alg_seed) g ~k in
    let snap =
      snapshot_row (Printf.sprintf "k=%d n=%d" k n) (Rounds.metrics ledger)
    in
    let iters =
      List.fold_left (fun acc li -> acc + li.Kecss.iterations) 0 r.Kecss.levels
    in
    let l = log2f n in
    (* the asymptotic bound hides a per-iteration MST of
       O((D+sqrt n) polylog); at these sizes that term dominates the
       paper's +n, so we normalize by the finite-size expression
       k((D+sqrt n) log^4 n + n) — one extra log because our
       controlled Boruvka pays log n where Kutten-Peleg pays log*.  *)
    let bound = fi k *. (((fi d +. sqrtf n) *. l *. l *. l *. l) +. fi n) in
    let row : Table.cell list =
      [ I k; I n; I d; I r.Kecss.rounds; I iters; F bound;
        F (fi r.Kecss.rounds /. bound) ]
    in
    (row, snap)
  in
  let cells =
    List.concat_map (fun k -> List.map (fun n -> (k, n)) [ 32; 64; 96 ])
      [ 2; 3; 4 ]
  in
  let results = par_cells cell cells in
  List.iter (fun (row, _) -> Table.add_row t row) results;
  Table.note t
    "per-iteration cost is dominated by the MST filter; iters tracks \
     O(log^3 n) (see L4-iters)";
  { tables = [ t; snapshot_table ~title:"k-ECSS" (List.map snd results) ];
    text = None }

let t12_approx () =
  let exact =
    Table.create ~title:"k-ECSS vs exact optimum (tiny, k=3)  [Thm 1.2]"
      ~columns:[ "instance"; "w(alg)"; "w(opt)"; "ratio"; "ratio/(k ln n)" ]
  in
  for s = 1 to 4 do
    let g = Workloads.tiny_exact ~seed:(100 + s) in
    let r = Kecss.solve ~seed:alg_seed g ~k:3 in
    match Baselines.Exact.kecss g ~k:3 with
    | None -> ()
    | Some opt ->
      let ow = Graph.mask_weight g opt in
      let ratio = fi r.Kecss.weight /. fi ow in
      Table.add_row exact
        [
          S (Printf.sprintf "tiny-%d" s); I r.Kecss.weight; I ow; F ratio;
          F (ratio /. (3.0 *. log 8.0));
        ]
  done;
  let big =
    Table.create ~title:"k-ECSS vs degree lower bound  [Thm 1.2]"
      ~columns:[ "k"; "n"; "w(alg)"; "LB"; "alg/LB"; "(alg/LB)/(k ln n)" ]
  in
  List.iter
    (fun k ->
      List.iter
        (fun n ->
          let g = Workloads.weighted_random ~n ~k in
          let r = Kecss.solve ~seed:alg_seed g ~k in
          let lb = Baselines.Lower_bound.degree g ~k in
          let ratio = fi r.Kecss.weight /. fi lb in
          Table.add_row big
            [ I k; I n; I r.Kecss.weight; I lb; F ratio;
              F (ratio /. (fi k *. log (fi n))) ])
        [ 48; 96 ])
    [ 2; 3; 4 ];
  { tables = [ exact; big ]; text = None }

(* ------------------------------------------------------------------ *)
(* Theorem 1.3 — rounds and approximation                              *)
(* ------------------------------------------------------------------ *)

let t13_rounds () =
  let t =
    Table.create
      ~title:"unweighted 3-ECSS rounds vs O(D log^3 n)  [Thm 1.3]"
      ~columns:
        [ "n"; "m"; "D"; "rounds"; "iters"; "bound"; "rounds/bound" ]
  in
  let cell ledger n =
    let g = Workloads.unweighted_low_d ~n in
    let d = Graph.diameter g in
    let ledger = ledger () in
    let r = Ecss3.solve_with ledger (Rng.create ~seed:alg_seed) g in
    let snap =
      snapshot_row (Printf.sprintf "low-D n=%d" n) (Rounds.metrics ledger)
    in
    let l = log2f n in
    let bound = fi (max 2 d) *. l *. l *. l in
    let row : Table.cell list =
      [
        I n; I (Graph.m g); I d; I (Rounds.total ledger);
        I r.Ecss3.iterations; F bound; F (fi (Rounds.total ledger) /. bound);
      ]
    in
    (row, snap)
  in
  let results = par_cells cell [ 32; 64; 128; 256 ] in
  List.iter (fun (row, _) -> Table.add_row t row) results;
  let snaps = List.map snd results in
  let h2h =
    Table.create
      ~title:"3-ECSS: the dedicated algorithm vs the generic Aug path  [Thm 1.3]"
      ~columns:[ "n"; "D"; "rounds(3ECSS)"; "rounds(generic k-ECSS)"; "speedup" ]
  in
  let h2h_cell n =
    let g = Workloads.unweighted_low_d ~n in
    let d = Graph.diameter g in
    let ledger = Rounds.create () in
    ignore (Ecss3.solve_with ledger (Rng.create ~seed:alg_seed) g);
    let dedicated = Rounds.total ledger in
    let generic = (Kecss.solve ~seed:alg_seed g ~k:3).Kecss.rounds in
    ([ I n; I d; I dedicated; I generic; F (fi generic /. fi dedicated) ]
      : Table.cell list)
  in
  List.iter (Table.add_row h2h) (par_cells (fun _ -> h2h_cell) [ 32; 64 ]);
  Table.note h2h
    "the paper's point: on low-diameter graphs the cycle-space algorithm \
     avoids the Omega(n) of the generic path; the speedup should grow with n";
  { tables = [ t; snapshot_table ~title:"3-ECSS" snaps; h2h ]; text = None }

let t13_approx () =
  let t =
    Table.create
      ~title:"unweighted 3-ECSS size vs the ceil(3n/2) bound  [Thm 1.3]"
      ~columns:[ "n"; "edges(alg)"; "edges(thurimella)"; "LB"; "alg/LB" ]
  in
  List.iter
    (fun n ->
      let g = Workloads.unweighted_low_d ~n in
      let r = Ecss3.solve ~seed:alg_seed g in
      let th =
        Baselines.Thurimella.sparse_certificate (Rng.create ~seed:2) g ~k:3
      in
      let lb = Baselines.Lower_bound.unweighted_edges ~n ~k:3 in
      Table.add_row t
        [
          I n; I r.Ecss3.edge_count;
          I (Bitset.cardinal th.Baselines.Thurimella.solution); I lb;
          F (fi r.Ecss3.edge_count /. fi lb);
        ])
    [ 32; 64; 128; 256 ];
  let exact =
    Table.create ~title:"unweighted 3-ECSS vs exact optimum (tiny)"
      ~columns:[ "instance"; "edges(alg)"; "edges(opt)"; "ratio" ]
  in
  List.iter
    (fun (name, g) ->
      let r = Ecss3.solve ~seed:alg_seed g in
      match Baselines.Exact.kecss (Graph.unit_weights g) ~k:3 with
      | None -> ()
      | Some opt ->
        Table.add_row exact
          [
            S name; I r.Ecss3.edge_count; I (Bitset.cardinal opt);
            F (fi r.Ecss3.edge_count /. fi (Bitset.cardinal opt));
          ])
    [ ("wheel8", Gen.wheel 8); ("K6", Gen.complete 6); ("circ9(1,2)", Gen.circulant 9 [ 1; 2 ]) ];
  { tables = [ t; exact ]; text = None }

(* ------------------------------------------------------------------ *)
(* §5.4 remark — weighted 3-ECSS on the MST                            *)
(* ------------------------------------------------------------------ *)

let r54_weighted () =
  let t =
    Table.create
      ~title:"weighted 3-ECSS: §5.4 (labels on the MST) vs §4 (generic)"
      ~columns:
        [ "n"; "h_MST"; "w(§5.4)"; "rounds(§5.4)"; "w(§4)"; "rounds(§4)" ]
  in
  List.iter
    (fun n ->
      let g = Workloads.weighted_random ~n ~k:3 in
      let l1 = Rounds.create () in
      let r1 = Ecss3.solve_weighted_with l1 (Rng.create ~seed:alg_seed) g in
      let h_mst =
        let segs_tree =
          Mst.run (Rounds.create ()) (Rng.create ~seed:alg_seed) g
        in
        Rooted_tree.height segs_tree.Mst.tree
      in
      let r2 = Kecss.solve ~seed:alg_seed g ~k:3 in
      Table.add_row t
        [
          I n; I h_mst; I (Graph.mask_weight g r1.Ecss3.solution);
          I (Rounds.total l1); I r2.Kecss.weight; I r2.Kecss.rounds;
        ])
    [ 32; 64 ];
  Table.note t
    "the remark's trade-off: §5.4 pays O(h_MST) per iteration and avoids \
     the generic path's per-iteration MST; weights are comparable, rounds \
     much lower when h_MST is small";
  { tables = [ t ]; text = None }

(* ------------------------------------------------------------------ *)
(* Lemma 3.11 — TAP iteration count                                    *)
(* ------------------------------------------------------------------ *)

let l311_iters () =
  let t =
    Table.create
      ~title:"TAP iterations vs O(log n * log(n w_max/w_min))  [Lemma 3.11]"
      ~columns:[ "n"; "spread"; "iters"; "log2^2 n"; "iters/log2^2 n" ]
  in
  let cell (n, label, ratio) =
    let g = Workloads.spread_random ~n ~ratio in
    let r = Ecss2.solve ~seed:alg_seed g in
    let l = log2f n in
    ([
       I n; S label; I r.Ecss2.tap.Tap.iterations; F (l *. l);
       F (fi r.Ecss2.tap.Tap.iterations /. (l *. l));
     ]
      : Table.cell list)
  in
  let cells =
    List.concat_map
      (fun n ->
        List.map
          (fun (label, ratio) -> (n, label, ratio))
          [ ("1", 1); ("n", n); ("n^2", n * n) ])
      [ 64; 128; 256; 512 ]
  in
  List.iter (Table.add_row t) (par_cells (fun _ -> cell) cells);
  Table.note t "the normalized column should stay bounded as n grows";
  { tables = [ t ]; text = None }

(* ------------------------------------------------------------------ *)
(* §4 — Aug_k iteration count                                          *)
(* ------------------------------------------------------------------ *)

let l4_iters () =
  let t =
    Table.create ~title:"Aug_2 iterations and phases vs O(log^3 n)  [§4]"
      ~columns:
        [ "n"; "iters"; "phases"; "cuts"; "edges added"; "log2^3 n";
          "iters/log2^3 n" ]
  in
  List.iter
    (fun n ->
      let g = Workloads.weighted_random ~n ~k:2 in
      let ledger = Rounds.create () in
      let rng = Rng.create ~seed:alg_seed in
      let bfs = Prim.bfs_tree ledger g ~root:0 in
      let bfs_forest = Forest.of_rooted_tree bfs in
      let mst = Mst.run ledger (Rng.split rng) g in
      let r =
        Augk.augment ledger (Rng.split rng) ~bfs_forest g ~h:mst.Mst.mask ~k:2
      in
      let l = log2f n in
      Table.add_row t
        [
          I n; I r.Augk.iterations; I r.Augk.phases; I r.Augk.cut_count;
          I (Bitset.cardinal r.Augk.augmentation); F (l *. l *. l);
          F (fi r.Augk.iterations /. (l *. l *. l));
        ])
    [ 32; 64; 128 ];
  { tables = [ t ]; text = None }

(* ------------------------------------------------------------------ *)
(* Lemma 3.4 — decomposition quality                                   *)
(* ------------------------------------------------------------------ *)

let decompose g =
  let ledger = Rounds.create () in
  let rng = Rng.create ~seed:alg_seed in
  let bfs = Prim.bfs_tree ledger g ~root:0 in
  let bfs_forest = Forest.of_rooted_tree bfs in
  let mst = Mst.run ledger rng g in
  (Segments.build ledger ~bfs_forest mst, mst)

let l34_decomp () =
  let t =
    Table.create
      ~title:"segment decomposition: O(sqrt n) segments of O(sqrt n) diameter \
              [Lemma 3.4 / §3.2]"
      ~columns:
        [
          "shape"; "n"; "marked"; "segments"; "max seg height";
          "segments/sqrt n"; "height/sqrt n";
        ]
  in
  List.iter
    (fun n ->
      List.iter
        (fun (shape, g) ->
          let segs, _ = decompose g in
          let n = Graph.n g in
          Table.add_row t
            [
              S shape; I n; I (Segments.marked_count segs);
              I (Segments.count segs); I (Segments.max_segment_height segs);
              F (fi (Segments.count segs) /. sqrtf n);
              F (fi (Segments.max_segment_height segs) /. sqrtf n);
            ])
        (Workloads.decomposition_shapes ~n))
    [ 64; 256; 1024 ];
  Table.note t "both normalized columns should stay O(1) as n grows 16x";
  { tables = [ t ]; text = None }

(* ------------------------------------------------------------------ *)
(* Property 5.1 — label error rates                                    *)
(* ------------------------------------------------------------------ *)

let p51_labels () =
  let t =
    Table.create
      ~title:"cycle-space label collisions vs 2^-b  [Cor 5.3 / Property 5.1]"
      ~columns:[ "b"; "false-pos rate"; "2^-b"; "missed true pairs" ]
  in
  (* a 3EC graph: every label equality is a false positive *)
  let g = Workloads.unweighted_low_d ~n:24 in
  let tree = Rooted_tree.bfs_tree g ~root:0 in
  let mask = Graph.all_edges_mask g in
  (* the figure-2 graph carries true cut pairs: they must always appear *)
  let g2 = Gen.paper_figure2 () in
  let tree2 = Rooted_tree.bfs_tree g2 ~root:0 in
  let mask2 = Graph.all_edges_mask g2 in
  let truth2 = Cut_pairs_exact.all g2 ~h_mask:mask2 in
  let trials = 40 in
  List.iter
    (fun b ->
      let collisions = ref 0 and missed = ref 0 in
      for s = 1 to trials do
        let l = Labels.compute ~bits:b (Rng.create ~seed:s) tree ~h_mask:mask in
        collisions := !collisions + List.length (Labels.cut_pairs l);
        let l2 =
          Labels.compute ~bits:b (Rng.create ~seed:(1000 + s)) tree2 ~h_mask:mask2
        in
        let reported = Labels.cut_pairs l2 in
        List.iter
          (fun p -> if not (List.mem p reported) then incr missed)
          truth2
      done;
      let m = Graph.m g in
      let total_pairs = m * (m - 1) / 2 * trials in
      Table.add_row t
        [
          I b; F (fi !collisions /. fi total_pairs);
          F (Float.pow 2.0 (fi (-b))); I !missed;
        ])
    [ 1; 2; 3; 4; 6; 8; 10; 12 ];
  Table.note t
    "one-sided error: 'missed true pairs' must be 0 at every width";
  { tables = [ t ]; text = None }

(* ------------------------------------------------------------------ *)
(* Message complexity                                                  *)
(* ------------------------------------------------------------------ *)

let m_messages () =
  let t =
    Table.create
      ~title:"message complexity of the building blocks (CONGEST messages)"
      ~columns:
        [ "n"; "m"; "msgs(MST)"; "msgs/m log n"; "msgs(2-ECSS)"; "msgs/m log^3 n" ]
  in
  let cell ledger n =
    let g = Workloads.weighted_random ~n ~k:2 in
    let m = Graph.m g in
    let l1 = ledger () in
    ignore (Mst.run l1 (Rng.create ~seed:alg_seed) g);
    let mst_msgs = Rounds.total_messages l1 in
    let l2 = ledger () in
    ignore (Ecss2.solve_with l2 (Rng.create ~seed:alg_seed) g);
    let snap = snapshot_row (Printf.sprintf "2-ECSS n=%d" n) (Rounds.metrics l2) in
    let ecss_msgs = Rounds.total_messages l2 in
    let lg = log2f n in
    let row : Table.cell list =
      [
        I n; I m; I mst_msgs; F (fi mst_msgs /. (fi m *. lg));
        I ecss_msgs; F (fi ecss_msgs /. (fi m *. lg *. lg *. lg));
      ]
    in
    (row, snap)
  in
  let results = par_cells cell [ 64; 128; 256; 512 ] in
  List.iter (fun (row, _) -> Table.add_row t row) results;
  Table.note t
    "the engine counts every message it delivers; both normalized columns \
     should stay bounded (MST is O(m log n) messages, the 2-ECSS adds \
     O(log^2 n) iterations of O(m + n sqrt n) traffic)";
  { tables = [ t; snapshot_table ~title:"message census" (List.map snd results) ];
    text = None }

(* ------------------------------------------------------------------ *)
(* Baseline comparison                                                 *)
(* ------------------------------------------------------------------ *)

let baselines () =
  let unw =
    Table.create ~title:"unweighted comparison vs prior work  [§1]"
      ~columns:[ "instance"; "k"; "algorithm"; "edges"; "rounds" ]
  in
  let add instance k alg edges rounds =
    Table.add_row unw
      [ S instance; I k; S alg; I edges;
        (match rounds with Some r -> I r | None -> S "-") ]
  in
  (* k = 2 unweighted *)
  let g2 = Graph.unit_weights (Workloads.weighted_circulant ~n:64) in
  let r2 = Ecss2.solve ~seed:alg_seed g2 in
  add "circ64" 2 "this paper (Thm 1.1)" (Bitset.cardinal r2.Ecss2.solution)
    (Some r2.Ecss2.rounds);
  let ledger = Rounds.create () in
  let u2 = Ecss2_unweighted.solve_with ledger g2 in
  add "circ64" 2 "2-approx of [1] (O(D))"
    (Bitset.cardinal u2.Ecss2_unweighted.h)
    (Some (Rounds.total ledger));
  let th2 = Baselines.Thurimella.sparse_certificate (Rng.create ~seed:3) g2 ~k:2 in
  add "circ64" 2 "Thurimella certificate"
    (Bitset.cardinal th2.Baselines.Thurimella.solution)
    (Some th2.Baselines.Thurimella.rounds);
  add "circ64" 2 "lower bound"
    (Baselines.Lower_bound.unweighted_edges ~n:64 ~k:2) None;
  (* k = 3 unweighted *)
  let g3 = Workloads.unweighted_low_d ~n:64 in
  let ledger3 = Rounds.create () in
  let r3 = Ecss3.solve_with ledger3 (Rng.create ~seed:alg_seed) g3 in
  add "rand64" 3 "this paper (Thm 1.3)" r3.Ecss3.edge_count
    (Some (Rounds.total ledger3));
  let k3 = Kecss.solve ~seed:alg_seed g3 ~k:3 in
  add "rand64" 3 "this paper (Thm 1.2)" (Bitset.cardinal k3.Kecss.solution)
    (Some k3.Kecss.rounds);
  let th3 = Baselines.Thurimella.sparse_certificate (Rng.create ~seed:3) g3 ~k:3 in
  add "rand64" 3 "Thurimella certificate"
    (Bitset.cardinal th3.Baselines.Thurimella.solution)
    (Some th3.Baselines.Thurimella.rounds);
  add "rand64" 3 "lower bound"
    (Baselines.Lower_bound.unweighted_edges ~n:64 ~k:3) None;
  (* weighted k = 2 *)
  let w =
    Table.create ~title:"weighted 2-ECSS comparison  [§1]"
      ~columns:[ "instance"; "algorithm"; "weight"; "rounds" ]
  in
  let gw = Workloads.weighted_random ~n:128 ~k:2 in
  let rw = Ecss2.solve ~seed:alg_seed gw in
  Table.add_row w
    [ S "rand128"; S "this paper (Thm 1.1)";
      I (Graph.mask_weight gw rw.Ecss2.solution); I rw.Ecss2.rounds ];
  Table.add_row w
    [ S "rand128"; S "sequential greedy";
      I (Graph.mask_weight gw (Baselines.Greedy.kecss gw ~k:2)); S "-" ];
  Table.add_row w
    [ S "rand128"; S "degree lower bound";
      I (Baselines.Lower_bound.degree gw ~k:2); S "-" ];
  { tables = [ unw; w ]; text = None }

(* ------------------------------------------------------------------ *)
(* Figures                                                             *)
(* ------------------------------------------------------------------ *)

let f1_decomp () =
  let rng = Rng.create ~seed:Workloads.seed in
  let g =
    Weights.uniform rng ~lo:1 ~hi:30 (Gen.random_k_connected rng 24 2 ~extra:12)
  in
  let segs, mst = decompose g in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "Figure 1 analogue: a tree decomposed into segments with highways and a\n\
     skeleton tree (bold edges in the paper = highway edge ids below).\n\n";
  Buffer.add_string buf (Format.asprintf "%a@." Segments.pp segs);
  Buffer.add_string buf
    (Printf.sprintf "\nMST fragments: %d, global edges: [%s]\n"
       mst.Mst.fragment_count
       (String.concat "; " (List.map string_of_int mst.Mst.global_edges)));
  { tables = []; text = Some (Buffer.contents buf) }

let f2_labels () =
  let g = Gen.paper_figure2 () in
  let tree = Rooted_tree.bfs_tree g ~root:0 in
  let l =
    Labels.compute ~bits:16 (Rng.create ~seed:5) tree
      ~h_mask:(Graph.all_edges_mask g)
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "Figure 2 analogue: circulation labels on the 8-vertex example; edges\n\
     sharing a label are exactly the cut pairs.\n\n";
  Buffer.add_string buf (Format.asprintf "%a@." Labels.pp l);
  let truth = Cut_pairs_exact.all g ~h_mask:(Graph.all_edges_mask g) in
  Buffer.add_string buf
    (Printf.sprintf "\nexact cut pairs (oracle): %s\n"
       (String.concat ", "
          (List.map (fun (a, b) -> Printf.sprintf "{e%d,e%d}" a b) truth)));
  { tables = []; text = Some (Buffer.contents buf) }

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

let a_vote () =
  let t =
    Table.create ~title:"ablation: TAP voting threshold |Ce|/d  [§3]"
      ~columns:[ "divisor"; "iters"; "w(A)"; "edges(A)" ]
  in
  let g = Workloads.weighted_random ~n:128 ~k:2 in
  List.iter
    (fun vote_divisor ->
      let config = { (Tap.default_config 128) with vote_divisor } in
      let r = Ecss2.solve ~tap_config:config ~seed:alg_seed g in
      Table.add_row t
        [
          I vote_divisor; I r.Ecss2.tap.Tap.iterations;
          I r.Ecss2.augmentation_weight;
          I (Bitset.cardinal r.Ecss2.tap.Tap.augmentation);
        ])
    [ 1; 2; 4; 8; 16; 32 ];
  Table.note t
    "small divisors demand near-unanimous votes (more iterations, leaner A); \
     large ones admit everything (fewer iterations, heavier A). 8 is the \
     paper's analysed point.";
  { tables = [ t ]; text = None }

let a_phase () =
  let t =
    Table.create ~title:"ablation: Aug_k phase length M log n  [§4]"
      ~columns:[ "M"; "iters"; "phases"; "w(A)" ]
  in
  let g = Workloads.weighted_random ~n:64 ~k:2 in
  List.iter
    (fun m_phase ->
      let config = { (Augk.default_config 64) with m_phase } in
      let ledger = Rounds.create () in
      let rng = Rng.create ~seed:alg_seed in
      let bfs = Prim.bfs_tree ledger g ~root:0 in
      let bfs_forest = Forest.of_rooted_tree bfs in
      let mst = Mst.run ledger (Rng.split rng) g in
      let r =
        Augk.augment ~config ledger (Rng.split rng) ~bfs_forest g
          ~h:mst.Mst.mask ~k:2
      in
      Table.add_row t
        [
          I m_phase; I r.Augk.iterations; I r.Augk.phases;
          I (Graph.mask_weight g r.Augk.augmentation);
        ])
    [ 1; 2; 4 ];
  { tables = [ t ]; text = None }

let a_mstfilter () =
  let t =
    Table.create ~title:"ablation: Aug_k MST filter (Claim 4.1)  [§4]"
      ~columns:[ "schedule"; "filter"; "w(A)"; "edges(A)"; "forest?" ]
  in
  let g = Workloads.weighted_random ~n:64 ~k:2 in
  List.iter
    (fun (schedule, max_iterations, use_mst_filter) ->
      (* max_iterations = 0 pins p to 1: every candidate is active at once,
         which is where the filter earns its keep *)
      let config =
        { (Augk.default_config 64) with use_mst_filter; max_iterations }
      in
      let ledger = Rounds.create () in
      let rng = Rng.create ~seed:alg_seed in
      let bfs = Prim.bfs_tree ledger g ~root:0 in
      let bfs_forest = Forest.of_rooted_tree bfs in
      let mst = Mst.run ledger (Rng.split rng) g in
      let r =
        Augk.augment ~config ledger (Rng.split rng) ~bfs_forest g
          ~h:mst.Mst.mask ~k:2
      in
      let a = r.Augk.augmentation in
      let uf = Union_find.create (Graph.n g) in
      let forest = ref true in
      Bitset.iter
        (fun e ->
          let u, v = Graph.endpoints g e in
          if not (Union_find.union uf u v) then forest := false)
        a;
      Table.add_row t
        [
          S schedule;
          S (if use_mst_filter then "on" else "off");
          I (Graph.mask_weight g a); I (Bitset.cardinal a);
          S (if !forest then "yes" else "no");
        ])
    [
      ("guessed p", (Augk.default_config 64).Augk.max_iterations, true);
      ("guessed p", (Augk.default_config 64).Augk.max_iterations, false);
      ("p = 1", 0, true);
      ("p = 1", 0, false);
    ];
  Table.note t
    "at p = 1 every max-level candidate activates simultaneously: the \
     filter keeps A a forest, without it the weight inflates";
  { tables = [ t ]; text = None }

(* ------------------------------------------------------------------ *)
(* sparsification front-end                                            *)
(* ------------------------------------------------------------------ *)

module Sparsify = Kecss_sparsify.Sparsify
module Verify = Kecss_connectivity.Verify

(* [kecss experiment --sparsify MODE] restricts the sweep to one mode *)
let sparsify_modes = ref [ Sparsify.Certificate; Sparsify.Spanner ]
let set_sparsify_modes ms = sparsify_modes := ms

let s_sparsify () =
  let t =
    Table.create ~title:"sparsify front-end across densities (2-ECSS, k=2)"
      ~columns:
        [
          "n"; "p"; "m"; "mode"; "kept"; "kept%"; "rounds"; "messages";
          "weight"; "w/base"; "ms"; "ok";
        ]
  in
  (* G(n,p) conditioned on connectivity, seeded weights: the density knob
     the solvers' round and wall-clock costs actually scale in *)
  let weighted_dense n p =
    let rng = Rng.create ~seed:Workloads.seed in
    let g = Gen.random_connected rng n p in
    Graph.map_weights (fun _ -> 1 + Rng.int rng (2 * n)) g
  in
  let cell ledger (n, p, mode) =
    let g = weighted_dense n p in
    let ledger = ledger () in
    let t0 = Kecss_obs.Prof.now_ns () in
    let sp =
      Option.map
        (fun mode ->
          Sparsify.run ~ledger (Rng.create ~seed:alg_seed) g ~k:2 ~mode)
        mode
    in
    let target = match sp with Some sp -> sp.Sparsify.sub | None -> g in
    let r = Ecss2.solve_with ledger (Rng.create ~seed:alg_seed) target in
    let sol =
      match sp with
      | Some sp -> Sparsify.lift sp r.Ecss2.solution
      | None -> r.Ecss2.solution
    in
    let ms = (Kecss_obs.Prof.now_ns () -. t0) /. 1e6 in
    let ok = (Verify.check_kecss g sol ~k:2).Verify.ok in
    let mode_str =
      match mode with None -> "none" | Some m -> Sparsify.mode_to_string m
    in
    let kept = match sp with None -> Graph.m g | Some sp -> sp.Sparsify.edges_out in
    ( n, p, Graph.m g, mode_str, kept, Rounds.total ledger,
      Rounds.total_messages ledger, Graph.mask_weight g sol, ms, ok )
  in
  let cells =
    List.concat_map
      (fun (n, p) ->
        (n, p, None)
        :: List.map (fun m -> (n, p, Some m)) !sparsify_modes)
      [ (128, 0.10); (128, 0.30); (256, 0.10); (256, 0.30) ]
  in
  let results = par_cells cell cells in
  (* w/base normalizes each mode's solution weight against the unsparsified
     solve of the same instance — the "none" row of its (n, p) group *)
  let base = Hashtbl.create 8 in
  List.iter
    (fun (n, p, m, mode_str, kept, rounds, msgs, weight, ms, ok) ->
      if mode_str = "none" then Hashtbl.replace base (n, p) weight;
      let bw =
        match Hashtbl.find_opt base (n, p) with
        | Some w when w > 0 -> fi weight /. fi w
        | _ -> Float.nan
      in
      Table.add_row t
        [
          I n; F p; I m; S mode_str; I kept;
          F (100.0 *. fi kept /. fi (max 1 m));
          I rounds; I msgs; I weight; F bw; F ms;
          S (if ok then "yes" else "NO");
        ])
    results;
  Table.note t
    "every sparsified solution is lifted back to, and verified against, \
     the original graph; ms is wall-clock (varies run to run — all other \
     columns are seeded and deterministic). cert (Thurimella certificate) \
     ignores weights, so its w/base is the approximation cost it trades \
     for the large edge cut; spanner (k Baswana-Sen layers) keeps \
     per-cluster lightest edges and only sheds edges once m outgrows \
     k^2 n^(1+1/k).";
  { tables = [ t ]; text = None }

(* ------------------------------------------------------------------ *)

let all =
  [
    { id = "T1.1-rounds"; title = "2-ECSS round complexity";
      paper_claim =
        "Thm 1.1: weighted 2-ECSS in O((D+sqrt n) log^2 n) rounds w.h.p.";
      quick = false; run = t11_rounds };
    { id = "T1.1-approx"; title = "2-ECSS approximation";
      paper_claim = "Thm 1.1: guaranteed O(log n)-approximation";
      quick = true; run = t11_approx };
    { id = "T1.2-rounds"; title = "k-ECSS round complexity";
      paper_claim = "Thm 1.2: weighted k-ECSS in O(k(D log^3 n + n)) rounds";
      quick = false; run = t12_rounds };
    { id = "T1.2-approx"; title = "k-ECSS approximation";
      paper_claim = "Thm 1.2: expected O(k log n)-approximation";
      quick = true; run = t12_approx };
    { id = "T1.3-rounds"; title = "unweighted 3-ECSS round complexity";
      paper_claim = "Thm 1.3: unweighted 3-ECSS in O(D log^3 n) rounds";
      quick = false; run = t13_rounds };
    { id = "T1.3-approx"; title = "unweighted 3-ECSS approximation";
      paper_claim = "Thm 1.3: expected O(log n)-approximation";
      quick = true; run = t13_approx };
    { id = "R5.4-weighted"; title = "weighted 3-ECSS (remark)";
      paper_claim = "§5.4: the 3-ECSS algorithm extends to weights using \
                     the MST, at O(h_MST) rounds per iteration";
      quick = true; run = r54_weighted };
    { id = "L3.11-iters"; title = "TAP iteration count";
      paper_claim = "Lemma 3.11: O(log^2 n) iterations w.h.p. (O(log n \
                     log(n w_max/w_min)) for general weights)";
      quick = false; run = l311_iters };
    { id = "L4-iters"; title = "Aug_k iteration count";
      paper_claim = "§4: O(log^3 n) iterations from the guessing schedule";
      quick = true; run = l4_iters };
    { id = "L3.4-decomp"; title = "decomposition quality";
      paper_claim = "Lemma 3.4/§3.2: O(sqrt n) marked vertices and segments, \
                     segment diameter O(sqrt n)";
      quick = false; run = l34_decomp };
    { id = "P5.1-labels"; title = "cycle-space sampling error";
      paper_claim = "Cor 5.3: non-cut sets collide w.p. 2^-b; cut pairs \
                     always detected (one-sided)";
      quick = true; run = p51_labels };
    { id = "M-messages"; title = "message complexity";
      paper_claim = "CONGEST messages are O(log n) bits; we additionally \
                     report how many the executions send";
      quick = true; run = m_messages };
    { id = "B-baselines"; title = "prior-work baselines";
      paper_claim = "§1: comparison against Thurimella's certificate, the \
                     O(D) 2-approx of [1], and sequential greedy";
      quick = true; run = baselines };
    { id = "F1-decomp"; title = "Figure 1: segments and skeleton";
      paper_claim = "Figure 1: decomposition illustration";
      quick = true; run = f1_decomp };
    { id = "F2-labels"; title = "Figure 2: circulation labels";
      paper_claim = "Figure 2: labels identify cut pairs";
      quick = true; run = f2_labels };
    { id = "A-vote"; title = "ablation: voting threshold";
      paper_claim = "§3: the |Ce|/8 vote threshold";
      quick = true; run = a_vote };
    { id = "A-phase"; title = "ablation: phase length";
      paper_claim = "§4: M log n iterations per probability value";
      quick = true; run = a_phase };
    { id = "A-mstfilter"; title = "ablation: MST filter";
      paper_claim = "Claim 4.1: the filter keeps A a forest";
      quick = true; run = a_mstfilter };
    { id = "S-sparsify"; title = "sparsification front-end";
      paper_claim =
        "Thurimella / Dory-Ghaffari 2019: sparse certificates and spanner \
         layers cut dense-input cost while k-connectivity is preserved";
      quick = true; run = s_sparsify };
  ]

let find id = List.find_opt (fun e -> e.id = id) all

let run_and_print e =
  Printf.printf "\n################ %s — %s\n" e.id e.title;
  Printf.printf "# claim: %s\n\n" e.paper_claim;
  let out = e.run () in
  List.iter Table.print out.tables;
  (match out.text with Some s -> print_string s | None -> ());
  flush stdout;
  out
