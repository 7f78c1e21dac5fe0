open Kecss_graph
open Kecss_congest
open Kecss_obs
module Certificate = Kecss_connectivity.Certificate

type t = {
  kept : Bitset.t;
  edges_in : int;
  edges_out : int;
  rounds : int;
  sub : Graph.t;
  to_original : int array;
}

let run ?ledger g ~k =
  if k < 1 then invalid_arg "Sparsify.run: k must be >= 1";
  let ledger = match ledger with Some l -> l | None -> Rounds.create () in
  Rounds.scoped ledger "sparsify" @@ fun () ->
  let m = Graph.m g in
  let trace = Rounds.trace ledger in
  Trace.count trace "sparsify edges in" m;
  let before = Rounds.total ledger in
  (* analytic O(D + √n log* n) per-forest charge: the measured-probe
     default would execute a full simulated MST on the dense input, which
     is exactly the wall-clock cost sparsification exists to avoid. D is
     bounded by twice the eccentricity of vertex 0. *)
  let n = Graph.n g in
  let ecc0 = Array.fold_left max 0 (Graph.bfs g 0) in
  let isqrt =
    let r = int_of_float (Float.sqrt (float_of_int n)) in
    if r * r < n then r + 1 else r
  in
  let logstar =
    let rec go x acc = if x <= 1.0 then acc else go (Float.log2 x) (acc + 1) in
    go (float_of_int n) 0
  in
  let per_phase = (2 * ecc0) + (isqrt * logstar) in
  let kept = Graph.no_edges_mask g in
  Array.iteri (fun e i -> if i > 0 then Bitset.add kept e) (Certificate.levels g ~k);
  Rounds.scoped ledger "thurimella" (fun () ->
      for _ = 1 to k do
        Rounds.charge ledger ~category:"forest" per_phase
      done);
  let rounds = Rounds.total ledger - before in
  let edges_out = Bitset.cardinal kept in
  Trace.count trace "sparsify edges out" edges_out;
  let to_original = Array.make edges_out 0 in
  let su = Array.make edges_out 0
  and sv = Array.make edges_out 0
  and sw = Array.make edges_out 0 in
  let i = ref 0 in
  Bitset.iter
    (fun e ->
      su.(!i) <- Graph.edge_u g e;
      sv.(!i) <- Graph.edge_v g e;
      sw.(!i) <- Graph.weight g e;
      to_original.(!i) <- e;
      incr i)
    kept;
  let sub = Graph.of_arrays ~n:(Graph.n g) su sv sw in
  { kept; edges_in = m; edges_out; rounds; sub; to_original }

let lift t sol =
  let out = Bitset.create t.edges_in in
  Bitset.iter (fun e -> Bitset.add out t.to_original.(e)) sol;
  out
