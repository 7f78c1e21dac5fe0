(* Flat CSR representation.  Edge endpoints/weights live in three int
   arrays indexed by edge id; adjacency is a packed neighbor/edge-id pair
   of arrays with per-vertex offsets. *)

type edge = { id : int; u : int; v : int; w : int }

type t = {
  n : int;
  m : int;
  eu : int array;  (* smaller endpoint, by edge id *)
  ev : int array;  (* larger endpoint, by edge id *)
  ew : int array;  (* weight, by edge id *)
  adj_off : int array;  (* n+1 offsets into adj_nbr/adj_eid *)
  adj_nbr : int array;  (* 2m packed neighbors, per-vertex in edge-id order *)
  adj_eid : int array;  (* 2m packed edge ids, aligned with adj_nbr *)
}

(* Counting-sort CSR build; per-vertex entries end up in ascending edge-id
   order, matching the historical adjacency order. *)
let build_csr n m eu ev =
  let adj_off = Array.make (n + 1) 0 in
  for i = 0 to m - 1 do
    adj_off.(eu.(i)) <- adj_off.(eu.(i)) + 1;
    adj_off.(ev.(i)) <- adj_off.(ev.(i)) + 1
  done;
  let acc = ref 0 in
  for v = 0 to n - 1 do
    let d = adj_off.(v) in
    adj_off.(v) <- !acc;
    acc := !acc + d
  done;
  adj_off.(n) <- !acc;
  let adj_nbr = Array.make (2 * m) 0 in
  let adj_eid = Array.make (2 * m) 0 in
  let fill = Array.sub adj_off 0 (max n 1) in
  for i = 0 to m - 1 do
    let u = eu.(i) and v = ev.(i) in
    let cu = fill.(u) in
    adj_nbr.(cu) <- v;
    adj_eid.(cu) <- i;
    fill.(u) <- cu + 1;
    let cv = fill.(v) in
    adj_nbr.(cv) <- u;
    adj_eid.(cv) <- i;
    fill.(v) <- cv + 1
  done;
  (adj_off, adj_nbr, adj_eid)

let of_arrays_named ~who ~n eu ev ew =
  if n <= 0 then invalid_arg (who ^ ": n must be positive");
  let m = Array.length eu in
  if Array.length ev <> m || Array.length ew <> m then
    invalid_arg (who ^ ": endpoint/weight arrays disagree on length");
  let fail i fmt =
    Printf.ksprintf
      (fun msg -> invalid_arg (Printf.sprintf "%s: edge %d: %s" who i msg))
      fmt
  in
  for i = 0 to m - 1 do
    let u = eu.(i) and v = ev.(i) in
    if u < 0 || u >= n then fail i "endpoint %d out of range [0, %d)" u n;
    if v < 0 || v >= n then fail i "endpoint %d out of range [0, %d)" v n;
    if u = v then fail i "self-loop at vertex %d" u;
    if ew.(i) < 0 then fail i "negative weight %d" ew.(i);
    if u > v then begin
      eu.(i) <- v;
      ev.(i) <- u
    end
  done;
  let adj_off, adj_nbr, adj_eid = build_csr n m eu ev in
  { n; m; eu; ev; ew; adj_off; adj_nbr; adj_eid }

let of_arrays ~n eu ev ew = of_arrays_named ~who:"Graph.of_arrays" ~n eu ev ew

let make ~n spec =
  if n <= 0 then invalid_arg "Graph.make: n must be positive";
  let m = List.length spec in
  let eu = Array.make m 0 and ev = Array.make m 0 and ew = Array.make m 0 in
  List.iteri
    (fun i (u, v, w) ->
      eu.(i) <- u;
      ev.(i) <- v;
      ew.(i) <- w)
    spec;
  of_arrays_named ~who:"Graph.make" ~n eu ev ew

let n g = g.n
let m g = g.m

let edge g id = { id; u = g.eu.(id); v = g.ev.(id); w = g.ew.(id) }
let endpoints g id = (g.eu.(id), g.ev.(id))
let edge_u g id = g.eu.(id)
let edge_v g id = g.ev.(id)
let weight g id = g.ew.(id)

let other_end g id x =
  let u = g.eu.(id) and v = g.ev.(id) in
  if x = u then v
  else if x = v then u
  else invalid_arg "Graph.other_end: not an endpoint"

let degree g v = g.adj_off.(v + 1) - g.adj_off.(v)

let iter_adj g v f =
  for i = g.adj_off.(v) to g.adj_off.(v + 1) - 1 do
    f g.adj_nbr.(i) g.adj_eid.(i)
  done

let fold_adj g v f init =
  let acc = ref init in
  for i = g.adj_off.(v) to g.adj_off.(v + 1) - 1 do
    acc := f !acc g.adj_nbr.(i) g.adj_eid.(i)
  done;
  !acc

let adj_nbr_at g v i = g.adj_nbr.(g.adj_off.(v) + i)
let adj_eid_at g v i = g.adj_eid.(g.adj_off.(v) + i)

let adjacency g = (g.adj_off, g.adj_nbr, g.adj_eid)

let find_edge g u v =
  let lo = g.adj_off.(u) and hi = g.adj_off.(u + 1) in
  let rec scan i =
    if i >= hi then None
    else if g.adj_nbr.(i) = v then Some g.adj_eid.(i)
    else scan (i + 1)
  in
  scan lo

let iter_edges f g =
  for id = 0 to g.m - 1 do
    f { id; u = g.eu.(id); v = g.ev.(id); w = g.ew.(id) }
  done

let fold_edges f g init =
  let acc = ref init in
  for id = 0 to g.m - 1 do
    acc := f { id; u = g.eu.(id); v = g.ev.(id); w = g.ew.(id) } !acc
  done;
  !acc

let total_weight g =
  let acc = ref 0 in
  for id = 0 to g.m - 1 do
    acc := !acc + g.ew.(id)
  done;
  !acc

let mask_weight g s =
  let acc = ref 0 in
  Bitset.iter (fun id -> acc := !acc + g.ew.(id)) s;
  !acc
let all_edges_mask g = Bitset.full (m g)
let no_edges_mask g = Bitset.create (m g)

let map_weights f g =
  let ew =
    Array.init g.m (fun id ->
        f { id; u = g.eu.(id); v = g.ev.(id); w = g.ew.(id) })
  in
  { g with ew }

let unit_weights g = map_weights (fun _ -> 1) g

let edge_allowed mask id =
  match mask with None -> true | Some s -> Bitset.mem s id

let bfs_tree ?mask g src =
  let dist = Array.make g.n (-1) and parent_edge = Array.make g.n (-1) in
  dist.(src) <- 0;
  let queue = Array.make g.n 0 in
  queue.(0) <- src;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let v = queue.(!head) in
    incr head;
    for i = g.adj_off.(v) to g.adj_off.(v + 1) - 1 do
      let nb = g.adj_nbr.(i) in
      if dist.(nb) < 0 then begin
        let id = g.adj_eid.(i) in
        if edge_allowed mask id then begin
          dist.(nb) <- dist.(v) + 1;
          parent_edge.(nb) <- id;
          queue.(!tail) <- nb;
          incr tail
        end
      end
    done
  done;
  (dist, parent_edge)

let bfs ?mask g src = fst (bfs_tree ?mask g src)

let components ?mask g =
  let comp = Array.make g.n (-1) in
  let next = ref 0 in
  let queue = Array.make g.n 0 in
  for v = 0 to g.n - 1 do
    if comp.(v) < 0 then begin
      let c = !next in
      incr next;
      comp.(v) <- c;
      queue.(0) <- v;
      let head = ref 0 and tail = ref 1 in
      while !head < !tail do
        let x = queue.(!head) in
        incr head;
        for i = g.adj_off.(x) to g.adj_off.(x + 1) - 1 do
          let nb = g.adj_nbr.(i) in
          if comp.(nb) < 0 && edge_allowed mask g.adj_eid.(i) then begin
            comp.(nb) <- c;
            queue.(!tail) <- nb;
            incr tail
          end
        done
      done
    end
  done;
  comp

let num_components ?mask g =
  let comp = components ?mask g in
  Array.fold_left (fun acc c -> max acc (c + 1)) 0 comp

let is_connected ?mask g = num_components ?mask g = 1

let eccentricity ?mask g v =
  let dist = bfs ?mask g v in
  Array.fold_left
    (fun acc d ->
      if d < 0 then invalid_arg "Graph.eccentricity: disconnected"
      else max acc d)
    0 dist

let diameter ?mask g =
  let best = ref 0 in
  for v = 0 to g.n - 1 do
    best := max !best (eccentricity ?mask g v)
  done;
  !best

let max_weight g =
  let acc = ref 0 in
  for id = 0 to g.m - 1 do
    acc := max !acc g.ew.(id)
  done;
  !acc

let pp ppf g =
  Format.fprintf ppf "@[<v>graph n=%d m=%d@," g.n (m g);
  iter_edges
    (fun e -> Format.fprintf ppf "  e%d: %d -- %d  (w=%d)@," e.id e.u e.v e.w)
    g;
  Format.fprintf ppf "@]"
