open Kecss_graph

let levels ?mask g ~k =
  if k < 1 then invalid_arg "Certificate.levels: k must be >= 1";
  let m = Graph.m g in
  let level = Array.make m 0 in
  let forests = Array.init k (fun _ -> Union_find.create (Graph.n g)) in
  let place e =
    let u = Graph.edge_u g e and v = Graph.edge_v g e in
    let i = ref 0 in
    while !i < k && not (Union_find.union forests.(!i) u v) do
      incr i
    done;
    if !i < k then level.(e) <- !i + 1
  in
  (* (weight, id) order is id order unless some weight falls with the id;
     a stable sort by weight keeps equal weights in id order *)
  let rec ascending e =
    e >= m - 1 || (Graph.weight g e <= Graph.weight g (e + 1) && ascending (e + 1))
  in
  let order =
    if ascending 0 then None
    else begin
      let o = Array.init m Fun.id in
      Array.stable_sort
        (fun a b -> Int.compare (Graph.weight g a) (Graph.weight g b))
        o;
      Some o
    end
  in
  (* each forest's components refine the one before's, so once the last
     forest spans a single component no later edge is placed *)
  let last = forests.(k - 1) in
  let i = ref 0 in
  while !i < m && Union_find.count last > 1 do
    let e = match order with None -> !i | Some o -> o.(!i) in
    (match mask with Some s when not (Bitset.mem s e) -> () | _ -> place e);
    incr i
  done;
  level
