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

type cell = Table.cell = S of string | I of int | F of float

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

(* The one source of experiment ledgers. [par_cells f xs] computes
   [f ledger x] for every workload cell on the pool and returns the
   results in list order, so tables and snapshot rows are appended in the
   same canonical order as the sequential elaboration. Cells must be
   self-contained — own rng streams, and every engine run on a ledger
   from [ledger ()]. Each such ledger records into its own fork of the
   run's probe and gets the fault hook made for that fork; the forks are
   joined back cell by cell, in creation order within a cell, so the
   run's telemetry is that of a sequential run at any [--jobs]. Under
   [~snapshot:true] every fork also has an engine metrics collector of
   its own, which [snapshot_row] reads. *)
let par_cells ?(snapshot = false) f xs =
  let open Kecss_obs in
  let cells = Array.of_list xs in
  let n = Array.length cells in
  let forks = Array.make n [] in
  let ledger i () =
    let p = Probe.fork !probe in
    let p =
      if (not snapshot) || Metrics.enabled (Probe.metrics p) then p
      else
        Probe.create ~trace:(Probe.trace p) ~metrics:(Metrics.create ())
          ~prof:(Probe.prof p) ~causal:(Probe.causal p) ()
    in
    forks.(i) <- p :: forks.(i);
    Rounds.of_probe p ~hook:(!hook p)
  in
  let out = Array.make n None in
  Kecss_par.Pool.parallel_for ~chunk:1 n (fun i ->
      out.(i) <- Some (f (ledger i) cells.(i)));
  Array.iter (fun ps -> List.iter (Probe.join !probe) (List.rev ps)) forks;
  Array.to_list (Array.map Option.get out)

let table ~title ~columns ?note rows =
  let t = Table.create ~title ~columns in
  List.iter (Table.add_row t) rows;
  Option.iter (Table.note t) note;
  t

let cells_table ~title ~columns ?note row xs =
  table ~title ~columns ?note (par_cells row xs)

let snapshot_row label ledger =
  let s = Kecss_obs.Metrics.summary (Rounds.metrics ledger) in
  [
    S label; I s.Kecss_obs.Metrics.rounds; I s.Kecss_obs.Metrics.messages;
    I s.Kecss_obs.Metrics.peak_round_messages;
    F s.Kecss_obs.Metrics.mean_active; I s.Kecss_obs.Metrics.peak_active;
    I s.Kecss_obs.Metrics.hottest_edge_messages; I s.Kecss_obs.Metrics.runs;
  ]

(* [cells_table] for cells that return their row together with a
   [snapshot_row] of one of their ledgers, followed by the telemetry
   snapshot table of those rows *)
let snapshot_tables ~title ~columns ?note ~census cell xs =
  let rows, snaps = List.split (par_cells ~snapshot:true cell xs) in
  let snapshot =
    table ~title:(census ^ " — telemetry snapshot")
      ~columns:
        [
          "instance"; "rounds"; "msgs"; "peak msgs/rnd"; "mean active";
          "peak active"; "hot-edge msgs"; "engine runs";
        ]
      ~note:
        "round-level series collected inside Network.run_counted; 'rounds' \
         is counted engine rounds, which excludes the analytically charged \
         pipelines"
      snaps
  in
  [ table ~title ~columns ?note rows; snapshot ]

(* the instances small enough for the exhaustive search, each with its
   optimum k-ECSS; an instance without one gets no row *)
let with_optimum ~k instances =
  List.filter_map
    (fun (name, g) ->
      Option.map (fun opt -> (name, g, opt)) (Baselines.Exact.kecss g ~k))
    instances

(* The start the §3 and §4 pipelines share, built as [Ecss2.solve_with]
   builds it: the BFS forest, then the MST on [rng]. *)
let bfs_mst ledger rng g =
  let bfs = Prim.bfs_tree ledger g ~root:0 in
  let mst = Mst.run ledger rng g in
  (Forest.of_rooted_tree bfs, mst)

(* Aug_2 over the MST, with [Kecss.solve_with]'s rng splits *)
let augment_mst ?config ledger g =
  let rng = Rng.create ~seed:alg_seed in
  let bfs_forest, mst = bfs_mst ledger (Rng.split rng) g in
  Augk.augment ?config ledger (Rng.split rng) ~bfs_forest g ~h:mst.Mst.mask
    ~k:2

(* ------------------------------------------------------------------ *)
(* Theorem 1.1 — rounds                                                *)
(* ------------------------------------------------------------------ *)

let t11_rounds () =
  let cell ledger (family, g) =
    let n = Graph.n g in
    let d = Graph.diameter g in
    let ledger = ledger () in
    let r = Ecss2.solve_with ledger (Rng.create ~seed:alg_seed) g in
    let bound = (fi d +. sqrtf n) *. log2f n *. log2f n in
    ( [
        S family; I n; I (Graph.m g); I d; I r.Ecss2.rounds;
        I r.Ecss2.tap.Tap.iterations; F bound; F (fi r.Ecss2.rounds /. bound);
      ],
      snapshot_row (Printf.sprintf "%s n=%d" family n) ledger )
  in
  let cells =
    List.map
      (fun n -> ("circulant(1,2) high-D", Workloads.weighted_circulant ~n))
      [ 64; 128; 256; 512 ]
    @ List.map
        (fun n -> ("random low-D", Workloads.weighted_random ~n ~k:2))
        [ 64; 128; 256; 512 ]
  in
  let tables =
    snapshot_tables ~title:"2-ECSS rounds vs O((D+sqrt n) log^2 n)  [Thm 1.1]"
      ~columns:
        [ "family"; "n"; "m"; "D"; "rounds"; "iters"; "bound"; "rounds/bound" ]
      ~note:"rounds/bound should stay roughly flat across n within each family"
      ~census:"2-ECSS" cell cells
  in
  { tables; text = None }

(* ------------------------------------------------------------------ *)
(* Theorem 1.1 — approximation                                         *)
(* ------------------------------------------------------------------ *)

let t11_approx () =
  let exact =
    cells_table ~title:"2-ECSS vs exact optimum (tiny instances)  [Thm 1.1]"
      ~columns:[ "instance"; "n"; "w(alg)"; "w(opt)"; "ratio" ]
      (fun ledger (name, g, opt) ->
        let r = Ecss2.solve_with (ledger ()) (Rng.create ~seed:alg_seed) g in
        let ow = Graph.mask_weight g opt in
        let aw = Graph.mask_weight g r.Ecss2.solution in
        [ S name; I (Graph.n g); I aw; I ow; F (fi aw /. fi ow) ])
      (with_optimum ~k:2
         (List.map
            (fun s -> (Printf.sprintf "tiny-%d" s, Workloads.tiny_exact ~seed:s))
            [ 1; 2; 3; 4 ]))
  in
  let big =
    cells_table
      ~title:"2-ECSS vs degree lower bound and sequential greedy  [Thm 1.1]"
      ~columns:
        [
          "family"; "n"; "w(alg)"; "w(greedy)"; "LB"; "alg/LB"; "(alg/LB)/ln n";
        ]
      ~note:
        "alg/LB is an upper bound on the true ratio; the normalized column \
         should not grow with n"
      (fun ledger (family, g) ->
        let n = Graph.n g in
        let r = Ecss2.solve_with (ledger ()) (Rng.create ~seed:alg_seed) g in
        let aw = Graph.mask_weight g r.Ecss2.solution in
        let gw = Graph.mask_weight g (Baselines.Greedy.kecss g ~k:2) in
        let lb = Baselines.Lower_bound.degree g ~k:2 in
        [
          S family; I n; I aw; I gw; I lb; F (fi aw /. fi lb);
          F (fi aw /. fi lb /. log (fi n));
        ])
      (List.map
         (fun n -> ("circulant(1,2)", Workloads.weighted_circulant ~n))
         [ 64; 128; 256 ]
      @ List.map
          (fun n -> ("random", Workloads.weighted_random ~n ~k:2))
          [ 64; 128; 256 ])
  in
  { tables = [ exact; big ]; text = None }

(* ------------------------------------------------------------------ *)
(* Theorem 1.2 — rounds and approximation                              *)
(* ------------------------------------------------------------------ *)

let t12_rounds () =
  let cell ledger (k, n) =
    let g = Workloads.weighted_random ~n ~k in
    let d = Graph.diameter g in
    let ledger = ledger () in
    let r = Kecss.solve_with ledger (Rng.create ~seed:alg_seed) g ~k in
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
    ( [ I k; I n; I d; I r.Kecss.rounds; I iters; F bound;
        F (fi r.Kecss.rounds /. bound) ],
      snapshot_row (Printf.sprintf "k=%d n=%d" k n) ledger )
  in
  let tables =
    snapshot_tables ~title:"k-ECSS rounds vs O(k (D log^3 n + n))  [Thm 1.2]"
      ~columns:[ "k"; "n"; "D"; "rounds"; "iters"; "bound"; "rounds/bound" ]
      ~note:
        "per-iteration cost is dominated by the MST filter; iters tracks \
         O(log^3 n) (see L4-iters)"
      ~census:"k-ECSS" cell
      (List.concat_map (fun k -> List.map (fun n -> (k, n)) [ 32; 64; 96 ])
         [ 2; 3; 4 ])
  in
  { tables; text = None }

let t12_approx () =
  let exact =
    cells_table ~title:"k-ECSS vs exact optimum (tiny, k=3)  [Thm 1.2]"
      ~columns:[ "instance"; "w(alg)"; "w(opt)"; "ratio"; "ratio/(k ln n)" ]
      (fun ledger (name, g, opt) ->
        let r =
          Kecss.solve_with (ledger ()) (Rng.create ~seed:alg_seed) g ~k:3
        in
        let ow = Graph.mask_weight g opt in
        let ratio = fi r.Kecss.weight /. fi ow in
        [
          S name; I r.Kecss.weight; I ow; F ratio;
          F (ratio /. (3.0 *. log 8.0));
        ])
      (with_optimum ~k:3
         (List.map
            (fun s ->
              ( Printf.sprintf "tiny-%d" s,
                Workloads.tiny_exact ~seed:(100 + s) ))
            [ 1; 2; 3; 4 ]))
  in
  let big =
    cells_table ~title:"k-ECSS vs degree lower bound  [Thm 1.2]"
      ~columns:[ "k"; "n"; "w(alg)"; "LB"; "alg/LB"; "(alg/LB)/(k ln n)" ]
      (fun ledger (k, n) ->
        let g = Workloads.weighted_random ~n ~k in
        let r = Kecss.solve_with (ledger ()) (Rng.create ~seed:alg_seed) g ~k in
        let lb = Baselines.Lower_bound.degree g ~k in
        let ratio = fi r.Kecss.weight /. fi lb in
        [ I k; I n; I r.Kecss.weight; I lb; F ratio;
          F (ratio /. (fi k *. log (fi n))) ])
      (List.concat_map (fun k -> List.map (fun n -> (k, n)) [ 48; 96 ])
         [ 2; 3; 4 ])
  in
  { tables = [ exact; big ]; text = None }

(* ------------------------------------------------------------------ *)
(* Theorem 1.3 — rounds and approximation                              *)
(* ------------------------------------------------------------------ *)

let t13_rounds () =
  let cell ledger n =
    let g = Workloads.unweighted_low_d ~n in
    let d = Graph.diameter g in
    let ledger = ledger () in
    let r = Ecss3.solve_with ledger (Rng.create ~seed:alg_seed) g in
    let l = log2f n in
    let bound = fi (max 2 d) *. l *. l *. l in
    ( [
        I n; I (Graph.m g); I d; I (Rounds.total ledger);
        I r.Ecss3.iterations; F bound; F (fi (Rounds.total ledger) /. bound);
      ],
      snapshot_row (Printf.sprintf "low-D n=%d" n) ledger )
  in
  let rounds =
    snapshot_tables
      ~title:"unweighted 3-ECSS rounds vs O(D log^3 n)  [Thm 1.3]"
      ~columns:[ "n"; "m"; "D"; "rounds"; "iters"; "bound"; "rounds/bound" ]
      ~census:"3-ECSS" cell [ 32; 64; 128; 256 ]
  in
  let h2h =
    cells_table
      ~title:"3-ECSS: the dedicated algorithm vs the generic Aug path  [Thm 1.3]"
      ~columns:[ "n"; "D"; "rounds(3ECSS)"; "rounds(generic k-ECSS)"; "speedup" ]
      ~note:
        "the paper's point: on low-diameter graphs the cycle-space algorithm \
         avoids the Omega(n) of the generic path; the speedup should grow \
         with n"
      (fun ledger n ->
        let g = Workloads.unweighted_low_d ~n in
        let d = Graph.diameter g in
        let l3 = ledger () in
        ignore (Ecss3.solve_with l3 (Rng.create ~seed:alg_seed) g);
        let dedicated = Rounds.total l3 in
        let generic =
          (Kecss.solve_with (ledger ()) (Rng.create ~seed:alg_seed) g ~k:3)
            .Kecss.rounds
        in
        [ I n; I d; I dedicated; I generic; F (fi generic /. fi dedicated) ])
      [ 32; 64 ]
  in
  { tables = rounds @ [ h2h ]; text = None }

let t13_approx () =
  let t =
    cells_table
      ~title:"unweighted 3-ECSS size vs the ceil(3n/2) bound  [Thm 1.3]"
      ~columns:[ "n"; "edges(alg)"; "edges(thurimella)"; "LB"; "alg/LB" ]
      (fun ledger n ->
        let g = Workloads.unweighted_low_d ~n in
        let r = Ecss3.solve_with (ledger ()) (Rng.create ~seed:alg_seed) g in
        let th =
          Baselines.Thurimella.sparse_certificate ~ledger:(ledger ())
            (Rng.create ~seed:2) g ~k:3
        in
        let lb = Baselines.Lower_bound.unweighted_edges ~n ~k:3 in
        [
          I n; I r.Ecss3.edge_count;
          I (Bitset.cardinal th.Baselines.Thurimella.solution); I lb;
          F (fi r.Ecss3.edge_count /. fi lb);
        ])
      [ 32; 64; 128; 256 ]
  in
  let exact =
    cells_table ~title:"unweighted 3-ECSS vs exact optimum (tiny)"
      ~columns:[ "instance"; "edges(alg)"; "edges(opt)"; "ratio" ]
      (fun ledger (name, g, opt) ->
        let r = Ecss3.solve_with (ledger ()) (Rng.create ~seed:alg_seed) g in
        [
          S name; I r.Ecss3.edge_count; I (Bitset.cardinal opt);
          F (fi r.Ecss3.edge_count /. fi (Bitset.cardinal opt));
        ])
      (with_optimum ~k:3
         (List.map
            (fun (name, g) -> (name, Graph.unit_weights g))
            [ ("wheel8", Gen.wheel 8); ("K6", Gen.complete 6);
              ("circ9(1,2)", Gen.circulant 9 [ 1; 2 ]) ]))
  in
  { tables = [ t; exact ]; text = None }

(* ------------------------------------------------------------------ *)
(* §5.4 remark — weighted 3-ECSS on the MST                            *)
(* ------------------------------------------------------------------ *)

let r54_weighted () =
  let t =
    cells_table
      ~title:"weighted 3-ECSS: §5.4 (labels on the MST) vs §4 (generic)"
      ~columns:
        [ "n"; "h_MST"; "w(§5.4)"; "rounds(§5.4)"; "w(§4)"; "rounds(§4)" ]
      ~note:
        "the remark's trade-off: §5.4 pays O(h_MST) per iteration and avoids \
         the generic path's per-iteration MST; weights are comparable, rounds \
         much lower when h_MST is small"
      (fun ledger n ->
        let g = Workloads.weighted_random ~n ~k:3 in
        let l1 = ledger () in
        let r1 = Ecss3.solve_weighted_with l1 (Rng.create ~seed:alg_seed) g in
        let mst = Mst.run (ledger ()) (Rng.create ~seed:alg_seed) g in
        let r2 =
          Kecss.solve_with (ledger ()) (Rng.create ~seed:alg_seed) g ~k:3
        in
        [
          I n; I (Rooted_tree.height mst.Mst.tree);
          I (Graph.mask_weight g r1.Ecss3.solution); I (Rounds.total l1);
          I r2.Kecss.weight; I r2.Kecss.rounds;
        ])
      [ 32; 64 ]
  in
  { tables = [ t ]; text = None }

(* ------------------------------------------------------------------ *)
(* Lemma 3.11 — TAP iteration count                                    *)
(* ------------------------------------------------------------------ *)

let l311_iters () =
  let t =
    cells_table
      ~title:"TAP iterations vs O(log n * log(n w_max/w_min))  [Lemma 3.11]"
      ~columns:[ "n"; "spread"; "iters"; "log2^2 n"; "iters/log2^2 n" ]
      ~note:"the normalized column should stay bounded as n grows"
      (fun ledger (n, label, ratio) ->
        let g = Workloads.spread_random ~n ~ratio in
        let r = Ecss2.solve_with (ledger ()) (Rng.create ~seed:alg_seed) g in
        let l = log2f n in
        [
          I n; S label; I r.Ecss2.tap.Tap.iterations; F (l *. l);
          F (fi r.Ecss2.tap.Tap.iterations /. (l *. l));
        ])
      (List.concat_map
         (fun n ->
           List.map
             (fun (label, ratio) -> (n, label, ratio))
             [ ("1", 1); ("n", n); ("n^2", n * n) ])
         [ 64; 128; 256; 512 ])
  in
  { tables = [ t ]; text = None }

(* ------------------------------------------------------------------ *)
(* §4 — Aug_k iteration count                                          *)
(* ------------------------------------------------------------------ *)

let l4_iters () =
  let t =
    cells_table ~title:"Aug_2 iterations and phases vs O(log^3 n)  [§4]"
      ~columns:
        [ "n"; "iters"; "phases"; "cuts"; "edges added"; "log2^3 n";
          "iters/log2^3 n" ]
      (fun ledger n ->
        let r = augment_mst (ledger ()) (Workloads.weighted_random ~n ~k:2) in
        let l = log2f n in
        [
          I n; I r.Augk.iterations; I r.Augk.phases; I r.Augk.cut_count;
          I (Bitset.cardinal r.Augk.augmentation); F (l *. l *. l);
          F (fi r.Augk.iterations /. (l *. l *. l));
        ])
      [ 32; 64; 128 ]
  in
  { tables = [ t ]; text = None }

(* ------------------------------------------------------------------ *)
(* Lemma 3.4 — decomposition quality                                   *)
(* ------------------------------------------------------------------ *)

let decompose ledger g =
  let bfs_forest, mst = bfs_mst ledger (Rng.create ~seed:alg_seed) g in
  (Segments.build ledger ~bfs_forest mst, mst)

let l34_decomp () =
  let t =
    cells_table
      ~title:"segment decomposition: O(sqrt n) segments of O(sqrt n) diameter \
              [Lemma 3.4 / §3.2]"
      ~columns:
        [
          "shape"; "n"; "marked"; "segments"; "max seg height";
          "segments/sqrt n"; "height/sqrt n";
        ]
      ~note:"both normalized columns should stay O(1) as n grows 16x"
      (fun ledger (shape, g) ->
        let segs, _ = decompose (ledger ()) g in
        let n = Graph.n g in
        [
          S shape; I n; I (Segments.marked_count segs);
          I (Segments.count segs); I (Segments.max_segment_height segs);
          F (fi (Segments.count segs) /. sqrtf n);
          F (fi (Segments.max_segment_height segs) /. sqrtf n);
        ])
      (List.concat_map
         (fun n -> Workloads.decomposition_shapes ~n)
         [ 64; 256; 1024 ])
  in
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
  let cell ledger n =
    let g = Workloads.weighted_random ~n ~k:2 in
    let m = Graph.m g in
    let l1 = ledger () in
    ignore (Mst.run l1 (Rng.create ~seed:alg_seed) g);
    let mst_msgs = Rounds.total_messages l1 in
    let l2 = ledger () in
    ignore (Ecss2.solve_with l2 (Rng.create ~seed:alg_seed) g);
    let ecss_msgs = Rounds.total_messages l2 in
    let lg = log2f n in
    ( [
        I n; I m; I mst_msgs; F (fi mst_msgs /. (fi m *. lg));
        I ecss_msgs; F (fi ecss_msgs /. (fi m *. lg *. lg *. lg));
      ],
      snapshot_row (Printf.sprintf "2-ECSS n=%d" n) l2 )
  in
  let tables =
    snapshot_tables
      ~title:"message complexity of the building blocks (CONGEST messages)"
      ~columns:
        [ "n"; "m"; "msgs(MST)"; "msgs/m log n"; "msgs(2-ECSS)"; "msgs/m log^3 n" ]
      ~note:
        "the engine counts every message it delivers; both normalized columns \
         should stay bounded (MST is O(m log n) messages, the 2-ECSS adds \
         O(log^2 n) iterations of O(m + n sqrt n) traffic)"
      ~census:"message census" cell [ 64; 128; 256; 512 ]
  in
  { tables; text = None }

(* ------------------------------------------------------------------ *)
(* Baseline comparison                                                 *)
(* ------------------------------------------------------------------ *)

let baselines () =
  (* each cell is one row: a solver's edge count and the rounds charged
     to its ledger, or a value computed without the engine (a lower bound,
     the sequential greedy) *)
  let solved solve ledger =
    let ledger = ledger () in
    let sol = solve ledger in
    [ I (Bitset.cardinal sol); I (Rounds.total ledger) ]
  and offline v _ = [ I v; S "-" ] in
  let thurimella g ~k ledger =
    (Baselines.Thurimella.sparse_certificate ~ledger (Rng.create ~seed:3) g ~k)
      .Baselines.Thurimella.solution
  in
  let g2 = Graph.unit_weights (Workloads.weighted_circulant ~n:64) in
  let g3 = Workloads.unweighted_low_d ~n:64 in
  let unw =
    cells_table ~title:"unweighted comparison vs prior work  [§1]"
      ~columns:[ "instance"; "k"; "algorithm"; "edges"; "rounds" ]
      (fun ledger (instance, k, alg, row) ->
        S instance :: I k :: S alg :: row ledger)
      [
        ( "circ64", 2, "this paper (Thm 1.1)",
          solved (fun l ->
              (Ecss2.solve_with l (Rng.create ~seed:alg_seed) g2).Ecss2.solution)
        );
        ( "circ64", 2, "2-approx of [1] (O(D))",
          solved (fun l ->
              (Ecss2_unweighted.solve_with l g2).Ecss2_unweighted.h) );
        ("circ64", 2, "Thurimella certificate", solved (thurimella g2 ~k:2));
        ( "circ64", 2, "lower bound",
          offline (Baselines.Lower_bound.unweighted_edges ~n:64 ~k:2) );
        ( "rand64", 3, "this paper (Thm 1.3)",
          solved (fun l ->
              (Ecss3.solve_with l (Rng.create ~seed:alg_seed) g3).Ecss3.solution)
        );
        ( "rand64", 3, "this paper (Thm 1.2)",
          solved (fun l ->
              (Kecss.solve_with l (Rng.create ~seed:alg_seed) g3 ~k:3)
                .Kecss.solution) );
        ("rand64", 3, "Thurimella certificate", solved (thurimella g3 ~k:3));
        ( "rand64", 3, "lower bound",
          offline (Baselines.Lower_bound.unweighted_edges ~n:64 ~k:3) );
      ]
  in
  let gw = Workloads.weighted_random ~n:128 ~k:2 in
  let w =
    cells_table ~title:"weighted 2-ECSS comparison  [§1]"
      ~columns:[ "instance"; "algorithm"; "weight"; "rounds" ]
      (fun ledger (alg, row) -> S "rand128" :: S alg :: row ledger)
      [
        ( "this paper (Thm 1.1)",
          fun ledger ->
            let r =
              Ecss2.solve_with (ledger ()) (Rng.create ~seed:alg_seed) gw
            in
            [ I (Graph.mask_weight gw r.Ecss2.solution); I r.Ecss2.rounds ] );
        ( "sequential greedy",
          offline (Graph.mask_weight gw (Baselines.Greedy.kecss gw ~k:2)) );
        ("degree lower bound", offline (Baselines.Lower_bound.degree gw ~k:2));
      ]
  in
  { tables = [ unw; w ]; text = None }

(* ------------------------------------------------------------------ *)
(* Figures                                                             *)
(* ------------------------------------------------------------------ *)

let f1_decomp () =
  let rng = Rng.create ~seed:Workloads.seed in
  let g =
    Weights.uniform rng ~lo:1 ~hi:30 (Gen.random_k_connected rng 24 2 ~extra:12)
  in
  let segs, mst =
    List.hd (par_cells (fun ledger -> decompose (ledger ())) [ g ])
  in
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
  let g = Workloads.weighted_random ~n:128 ~k:2 in
  let t =
    cells_table ~title:"ablation: TAP voting threshold |Ce|/d  [§3]"
      ~columns:[ "divisor"; "iters"; "w(A)"; "edges(A)" ]
      ~note:
        "small divisors demand near-unanimous votes (more iterations, leaner \
         A); large ones admit everything (fewer iterations, heavier A). 8 is \
         the paper's analysed point."
      (fun ledger vote_divisor ->
        let config = { (Tap.default_config 128) with vote_divisor } in
        let r =
          Ecss2.solve_with ~tap_config:config (ledger ())
            (Rng.create ~seed:alg_seed) g
        in
        [
          I vote_divisor; I r.Ecss2.tap.Tap.iterations;
          I r.Ecss2.augmentation_weight;
          I (Bitset.cardinal r.Ecss2.tap.Tap.augmentation);
        ])
      [ 1; 2; 4; 8; 16; 32 ]
  in
  { tables = [ t ]; text = None }

let a_phase () =
  let g = Workloads.weighted_random ~n:64 ~k:2 in
  let t =
    cells_table ~title:"ablation: Aug_k phase length M log n  [§4]"
      ~columns:[ "M"; "iters"; "phases"; "w(A)" ]
      (fun ledger m_phase ->
        let config = { (Augk.default_config 64) with m_phase } in
        let r = augment_mst ~config (ledger ()) g in
        [
          I m_phase; I r.Augk.iterations; I r.Augk.phases;
          I (Graph.mask_weight g r.Augk.augmentation);
        ])
      [ 1; 2; 4 ]
  in
  { tables = [ t ]; text = None }

let a_mstfilter () =
  let g = Workloads.weighted_random ~n:64 ~k:2 in
  let t =
    cells_table ~title:"ablation: Aug_k MST filter (Claim 4.1)  [§4]"
      ~columns:[ "schedule"; "filter"; "w(A)"; "edges(A)"; "forest?" ]
      ~note:
        "at p = 1 every max-level candidate activates simultaneously: the \
         filter keeps A a forest, without it the weight inflates"
      (fun ledger (schedule, max_iterations, use_mst_filter) ->
        (* max_iterations = 0 pins p to 1: every candidate is active at
           once, which is where the filter earns its keep *)
        let config =
          { (Augk.default_config 64) with use_mst_filter; max_iterations }
        in
        let a = (augment_mst ~config (ledger ()) g).Augk.augmentation in
        let uf = Union_find.create (Graph.n g) in
        let forest = ref true in
        Bitset.iter
          (fun e ->
            let u, v = Graph.endpoints g e in
            if not (Union_find.union uf u v) then forest := false)
          a;
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
      ]
  in
  { tables = [ t ]; text = None }

(* ------------------------------------------------------------------ *)
(* sparsification front-end                                            *)
(* ------------------------------------------------------------------ *)

module Sparsify = Kecss_sparsify.Sparsify
module Verify = Kecss_connectivity.Verify

let s_sparsify () =
  (* G(n,p) conditioned on connectivity, seeded weights: the density knob
     the solvers' round and wall-clock costs actually scale in *)
  let weighted_dense n p =
    let rng = Rng.create ~seed:Workloads.seed in
    let g = Gen.random_connected rng n p in
    Graph.map_weights (fun _ -> 1 + Rng.int rng (2 * n)) g
  in
  let cell ledger (n, p, sparsify) =
    let g = weighted_dense n p in
    let ledger = ledger () in
    let t0 = Kecss_obs.Prof.now_ns () in
    let sp = if sparsify then Some (Sparsify.run ~ledger g ~k:2) else None in
    let target = match sp with Some sp -> sp.Sparsify.sub | None -> g in
    let r = Ecss2.solve_with ledger (Rng.create ~seed:alg_seed) target in
    let sol =
      match sp with
      | Some sp -> Sparsify.lift sp r.Ecss2.solution
      | None -> r.Ecss2.solution
    in
    let ms = (Kecss_obs.Prof.now_ns () -. t0) /. 1e6 in
    let ok = (Verify.check_kecss g sol ~k:2).Verify.ok in
    let mode_str = if sparsify then "cert" else "none" in
    let kept = match sp with None -> Graph.m g | Some sp -> sp.Sparsify.edges_out in
    ( n, p, Graph.m g, mode_str, kept, Rounds.total ledger,
      Rounds.total_messages ledger, Graph.mask_weight g sol, ms, ok )
  in
  let cells =
    List.concat_map
      (fun (n, p) -> [ (n, p, false); (n, p, true) ])
      [ (128, 0.10); (128, 0.30); (256, 0.10); (256, 0.30) ]
  in
  (* w/base normalizes each row's solution weight against the unsparsified
     solve of the same instance — the "none" row of its (n, p) group *)
  let base = Hashtbl.create 8 in
  let rows =
    List.map
      (fun (n, p, m, mode_str, kept, rounds, msgs, weight, ms, ok) ->
        if mode_str = "none" then Hashtbl.replace base (n, p) weight;
        let bw =
          match Hashtbl.find_opt base (n, p) with
          | Some w when w > 0 -> fi weight /. fi w
          | _ -> Float.nan
        in
        [
          I n; F p; I m; S mode_str; I kept;
          F (100.0 *. fi kept /. fi (max 1 m));
          I rounds; I msgs; I weight; F bw; F ms;
          S (if ok then "yes" else "NO");
        ])
      (par_cells cell cells)
  in
  let t =
    table ~title:"sparsify front-end across densities (2-ECSS, k=2)"
      ~columns:
        [
          "n"; "p"; "m"; "mode"; "kept"; "kept%"; "rounds"; "messages";
          "weight"; "w/base"; "ms"; "ok";
        ]
      ~note:
        "every sparsified solution is lifted back to, and verified against, \
         the original graph; ms is wall-clock (varies run to run — all other \
         columns are seeded and deterministic). cert keeps k edge-disjoint \
         lex-min (weight, id) spanning forests: at most k(n-1) edges, the \
         lightest that keep every cut up to k. Its rounds include its \
         analytic per-forest charge."
      rows
  in
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
        "Thurimella / Nagamochi-Ibaraki: a sparse certificate cuts \
         dense-input cost while k-connectivity is preserved";
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
