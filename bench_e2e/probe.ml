(* Measurement helpers and the layer probes that run on a workload's own
   graph: each CONGEST primitive called directly, and a fixed budget of
   Karger min-cut trials. *)

open Kecss_graph
open Kecss_congest
module Prof = Kecss_obs.Prof

let now = Unix.gettimeofday

(* words allocated so far, with the major-heap counters settled (they are
   only updated at collection boundaries) *)
let settled_words () =
  Gc.full_major ();
  Prof.allocated_words ()

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1e6

(* Set-up repeats between the measured operations, so that its samples
   spread over the whole run: this host slows down in bursts of a tenth
   of a second and more, and a burst then moves only a few samples, not
   the median. A repetition is due while the set-ups so far ([times])
   have taken under [setup_share] of the [elapsed] run, up to
   [max_setups]; a run tops up to [min_setups] at its end. *)
let min_setups = 5
let max_setups = 200
let setup_share = 0.05

let setup_due times ~elapsed =
  List.length times < max_setups && Stats.sum times < setup_share *. elapsed

(* The calibration kernel: a fixed reference computation in the solvers'
   style (allocation, hashing, sorting over a few megabytes), timed
   between measured operations. This host's speed drifts by 10-15% over
   minutes and by 50% for minutes at a time; an operation's time divided
   by the readings just before and after it cancels most of that drift.
   Readings are taken outside every allocation bracket. *)
let calibrate () =
  let t0 = now () in
  let st = Random.State.make [| 17 |] in
  let a = Array.init 32_768 (fun _ -> Random.State.int st 1_000_000) in
  let pairs = Array.fold_left (fun acc x -> (x, x land 7) :: acc) [] a in
  let h = Hashtbl.create 16 in
  List.iter (fun (x, y) -> Hashtbl.replace h x y) pairs;
  Array.sort compare a;
  ignore (Sys.opaque_identity (Hashtbl.length h + a.(0)));
  now () -. t0

(* the kernel's usual reading on the 2-vCPU VM the bounds were set on
   (bench_e2e/README.md) *)
let reference_reading = 0.0125

(* Set-up time is reported in seconds at that reference speed: [dt]
   scaled by a reading taken right after the set-up. A run-long slowdown
   of the host then does not read as slower set-up code. *)
let at_reference_speed dt = dt *. reference_reading /. calibrate ()

(* repeat [f] on a fresh ledger until 0.2 s have been spent in it (at
   least once): median seconds, messages and allocated words of one call *)
let repeat f =
  let times = ref [] and spent = ref 0.0 and msgs = ref 0 and words = ref 0.0 in
  while !times = [] || (!spent < 0.2 && List.length !times < 50) do
    let ledger = Rounds.create () in
    let a0 = settled_words () in
    let t0 = now () in
    f ledger;
    let dt = now () -. t0 in
    words := settled_words () -. a0;
    msgs := Rounds.total_messages ledger;
    times := dt :: !times;
    spent := !spent +. dt
  done;
  (Stats.median !times, !msgs, !words)

let congest g =
  let tree = Rooted_tree.bfs_tree g ~root:0 in
  let forest = Forest.of_rooted_tree tree in
  let run = function
    | "bfs" -> fun l -> ignore (Prim.bfs_tree l g ~root:0)
    | "exchange" ->
      fun l ->
        ignore
          (Prim.exchange l g (fun v ->
               Graph.fold_adj g v
                 (fun acc _ e -> { Network.edge = e; payload = [| v |] } :: acc)
                 []))
    | "wave_up" ->
      fun l ->
        ignore
          (Prim.wave_up l forest ~value:(fun _ kids ->
               [| List.fold_left (fun acc c -> acc + c.(0)) 1 kids |]))
    | "wave_down" ->
      fun l ->
        ignore
          (Prim.wave_down l forest
             ~root_value:(fun _ -> [| 0 |])
             ~derive:(fun _ ~parent_value -> [| parent_value.(0) + 1 |]))
    | "edge_stream" -> fun l -> Prim.edge_stream l g ~lengths:(fun _ -> 4)
    | p -> invalid_arg ("Probe.congest: " ^ p)
  in
  List.concat_map
    (fun p ->
      let t0 = now () in
      let dt, msgs, words = repeat (run p) in
      Spans.add ("probe/" ^ p) t0 (now ());
      let per x = x /. float_of_int (max 1 msgs) in
      [
        ("congest.probe." ^ p ^ ".ns_per_msg", per (dt *. 1e9));
        ("congest.probe." ^ p ^ ".words_per_msg", per words);
      ])
    Spec.probes

(* Karger trials on the solution, sized to about two million edge
   contractions whatever the graph, reported per trial and edge *)
let mincut g sol ~size =
  let edges = max 1 (Bitset.cardinal sol) in
  let trials = max 1 (2_000_000 / edges) in
  let t0 = now () in
  let cuts =
    Kecss_connectivity.Min_cut_enum.enumerate ~mask:sol ~trials
      ~rng:(Rng.create ~seed:7) g ~size
  in
  let t1 = now () in
  Spans.add "probe/mincut" t0 t1;
  [
    ("mincut.ns_per_trial_edge", (t1 -. t0) *. 1e9 /. float_of_int (trials * edges));
    ("mincut.cuts", float_of_int (List.length cuts));
  ]
