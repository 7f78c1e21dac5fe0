open Kecss_graph

type result = { set : Bitset.t; size : int; iterations : int }

let closed_neighborhood g v =
  v :: Graph.fold_adj g v (fun acc nb _ -> nb :: acc) [] |> List.sort_uniq compare

let problem g =
  {
    Cover.elements = Graph.n g;
    candidates = Graph.n g;
    weight = (fun _ -> 1);
    covered_by = (fun v f -> List.iter f (closed_neighborhood g v));
  }

let solve ?(strategy = Cover.Voting { divisor = 8 }) ?(seed = 1) g =
  let r = Cover.solve (Rng.create ~seed) (problem g) strategy in
  {
    set = r.Cover.chosen;
    size = Bitset.cardinal r.Cover.chosen;
    iterations = r.Cover.iterations;
  }

let is_dominating g set =
  let dominated = Array.make (Graph.n g) false in
  Bitset.iter
    (fun v -> List.iter (fun u -> dominated.(u) <- true) (closed_neighborhood g v))
    set;
  Array.for_all Fun.id dominated

let exact g =
  let n = Graph.n g in
  (* branch and bound over vertices in decreasing-degree order *)
  let order =
    List.init n Fun.id
    |> List.sort (fun a b -> compare (Graph.degree g b, a) (Graph.degree g a, b))
    |> Array.of_list
  in
  let best = ref (Bitset.full n) in
  let chosen = Bitset.create n in
  let dominated = Array.make n 0 in
  let undominated = ref n in
  let add v =
    List.iter
      (fun u ->
        if dominated.(u) = 0 then decr undominated;
        dominated.(u) <- dominated.(u) + 1)
      (closed_neighborhood g v)
  in
  let remove v =
    List.iter
      (fun u ->
        dominated.(u) <- dominated.(u) - 1;
        if dominated.(u) = 0 then incr undominated)
      (closed_neighborhood g v)
  in
  let rec go i size =
    if size >= Bitset.cardinal !best then ()
    else if !undominated = 0 then best := Bitset.copy chosen
    else if i < n then begin
      let v = order.(i) in
      Bitset.add chosen v;
      add v;
      go (i + 1) (size + 1);
      remove v;
      Bitset.remove chosen v;
      go (i + 1) size
    end
  in
  go 0 0;
  !best

let greedy_size g = Bitset.cardinal (Cover.greedy (problem g))
