open Kecss_graph
open Kecss_congest
module Certificate = Kecss_connectivity.Certificate

type result = {
  solution : Bitset.t;
  forests : Bitset.t list;
  rounds : int;
}

let sparse_certificate ?ledger rng g ~k =
  let ledger = match ledger with Some l -> l | None -> Rounds.create () in
  Rounds.scoped ledger "thurimella" @@ fun () ->
  if k < 1 then invalid_arg "Thurimella.sparse_certificate: k must be >= 1";
  (* per-phase round cost of one distributed forest computation, measured
     by executing the message-level unweighted MST once *)
  let unit = Graph.unit_weights g in
  let probe = Rounds.create () in
  ignore (Mst.run probe (Rng.split rng) unit);
  let per_phase = Rounds.total probe in
  (* on unit weights the forests take the edges in id order *)
  let forests = Array.init k (fun _ -> Graph.no_edges_mask g) in
  Array.iteri
    (fun e i -> if i > 0 then Bitset.add forests.(i - 1) e)
    (Certificate.levels unit ~k);
  let solution = Graph.no_edges_mask g in
  Array.iter
    (fun f ->
      Bitset.union_into solution f;
      Rounds.charge ledger ~category:"forest" per_phase)
    forests;
  { solution; forests = Array.to_list forests; rounds = Rounds.total ledger }
