open Kecss_graph
open Kecss_connectivity
open Kecss_obs
module Pool = Kecss_par.Pool

type report = {
  k : int;
  n : int;
  h_edges : int;
  spanning : bool;
  lambda : int;
  margin : int;
  search : string;
  trials : int;
  survived : int;
  survival_rate : float;
  worst_residual_lambda : int;
  witness : int list option;
}

let ok r = r.witness = None

let schema_version = "kecss-resilience/1"

(* cut-guided witness search: when λ(H) fits the failure budget, the
   minimum cuts of H are exactly the cheapest disconnecting failure sets *)
let find_witness ~rng g ~h ~spanning ~lambda ~budget =
  if not spanning then (Some [], "none")
  else if lambda > budget then (None, "none")
  else
    match Min_cut_enum.min_cuts ~mask:h ~rng g ~size:lambda with
    | search, cut :: _ -> (Some cut.Min_cut_enum.edge_ids, search)
    | search, [] ->
      (* the randomized enumerator is only complete w.h.p.; the maxflow
         min cut is a deterministic fallback witness *)
      let _, _, cut = Edge_connectivity.global_min_cut ~mask:h g in
      (Some cut, search)

(* One block of random failure-set trials with its own rng: the unit of
   parallel fan-out. Every trial builds a fresh mask and asks the
   connectivity oracle afresh, so blocks share only the immutable graph
   and [ids]. Returns (survived, worst residual λ, first disconnecting
   set in trial order). *)
let attack_block ~rng ~trials g ~h ~ids ~sample_size ~lambda =
  let survived = ref 0 in
  let worst = ref lambda in
  let witness = ref None in
  for _ = 1 to trials do
    let fail = Rng.sample_without_replacement rng sample_size (Array.length ids) in
    let mask = Bitset.copy h in
    List.iter (fun i -> Bitset.remove mask ids.(i)) fail;
    if Graph.is_connected ~mask g then begin
      incr survived;
      (* residual connectivity after the adversary spent its budget;
         removing |F| edges lowers λ by at most |F|, so λ(H) caps it *)
      let residual = Edge_connectivity.lambda ~mask ~upper:lambda g in
      if residual < !worst then worst := residual
    end
    else begin
      worst := 0;
      if !witness = None then
        witness := Some (List.map (fun i -> ids.(i)) fail)
    end
  done;
  (!survived, !worst, !witness)

(* Block structure depends only on the trial count, never on the pool
   size, so the report is identical at every [jobs]. *)
let max_blocks = 64
let min_block_trials = 4

let attack ?(trials = 64) ?rng ?pool g ~h ~k =
  let rng = match rng with Some r -> r | None -> Rng.create ~seed:1 in
  let n = Graph.n g in
  let vr = Verify.check_kecss ~cap:max_int g h ~k in
  let spanning = vr.Verify.spanning in
  let lambda = vr.Verify.connectivity in
  let budget = k - 1 in
  let witness, search =
    find_witness ~rng g ~h ~spanning ~lambda ~budget
  in
  let ids = Array.of_list (Bitset.elements h) in
  let sample_size = min budget (Array.length ids) in
  let sample_trials = if budget <= 0 || sample_size <= 0 then 0 else trials in
  let blocks =
    if sample_trials = 0 then 0
    else max 1 (min max_blocks (sample_trials / min_block_trials))
  in
  (* per-block rng streams split in index order before any task runs *)
  let specs =
    Array.init blocks (fun b ->
        let share =
          (sample_trials / blocks)
          + (if b < sample_trials mod blocks then 1 else 0)
        in
        (Rng.split rng, share))
  in
  let results =
    Pool.map ?pool ~chunk:1
      (fun (rng, trials) ->
        attack_block ~rng ~trials g ~h ~ids ~sample_size ~lambda)
      specs
  in
  (* canonical-order merge: sums and mins commute, and the witness is
     the cut-guided one if any, else the first sampled one by block
     index — same answer as the sequential elaboration *)
  let survived, worst, witness =
    Array.fold_left
      (fun (s, w, wit) (s', w', wit') ->
        (s + s', min w w', if wit = None then wit' else wit))
      (0, lambda, witness) results
  in
  {
    k;
    n;
    h_edges = Array.length ids;
    spanning;
    lambda;
    margin = lambda - budget;
    search;
    trials = sample_trials;
    survived;
    survival_rate =
      (if sample_trials = 0 then 1.0
       else float_of_int survived /. float_of_int sample_trials);
    worst_residual_lambda = worst;
    witness;
  }

let to_json r =
  Json.Obj
    [
      ("schema", Json.Str schema_version);
      ("k", Json.Int r.k);
      ("n", Json.Int r.n);
      ("h_edges", Json.Int r.h_edges);
      ("spanning", Json.Bool r.spanning);
      ("lambda", Json.Int r.lambda);
      ("margin", Json.Int r.margin);
      ("search", Json.Str r.search);
      ("trials", Json.Int r.trials);
      ("survived", Json.Int r.survived);
      ("survival_rate", Json.Float r.survival_rate);
      ("worst_residual_lambda", Json.Int r.worst_residual_lambda);
      ( "witness",
        match r.witness with
        | None -> Json.Null
        | Some ids -> Json.List (List.map (fun i -> Json.Int i) ids) );
      ("ok", Json.Bool (ok r));
    ]

let pp ppf r =
  Format.fprintf ppf
    "@[<v>resilience: %s (k = %d, budget = %d failures)@,\
    \  subgraph: %d edges over %d vertices, spanning = %b@,\
    \  connectivity: lambda = %d, margin over budget = %d@,\
    \  witness search: %s@,\
    \  random failures: %d/%d survived (%.1f%%), worst residual lambda = %d"
    (if ok r then "SURVIVES" else "KILLED")
    r.k
    (r.k - 1)
    r.h_edges r.n r.spanning r.lambda r.margin r.search r.survived r.trials
    (100.0 *. r.survival_rate)
    r.worst_residual_lambda;
  (match r.witness with
  | None -> ()
  | Some ids ->
    Format.fprintf ppf "@,  disconnecting failure set (%d edges): %s"
      (List.length ids)
      (String.concat " " (List.map string_of_int ids)));
  Format.fprintf ppf "@]"
