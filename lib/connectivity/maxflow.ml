open Kecss_graph

type arc = { dst : int; mutable cap : int; init_cap : int; rev : int }

type network = {
  n : int;
  arcs : arc array array;
  mutable last_source : int;
}

let of_graph ?mask ?(cap = fun _ -> 1) g =
  let n = Graph.n g in
  let deg = Array.make n 0 in
  let allowed e =
    match mask with None -> true | Some s -> Bitset.mem s e.Graph.id
  in
  Graph.iter_edges
    (fun e ->
      if allowed e then begin
        deg.(e.Graph.u) <- deg.(e.Graph.u) + 1;
        deg.(e.Graph.v) <- deg.(e.Graph.v) + 1
      end)
    g;
  let arcs =
    Array.init n (fun v -> Array.make deg.(v) { dst = -1; cap = 0; init_cap = 0; rev = -1 })
  in
  let fill = Array.make n 0 in
  Graph.iter_edges
    (fun e ->
      if allowed e then begin
        let c = cap e in
        let iu = fill.(e.Graph.u) and iv = fill.(e.Graph.v) in
        (* Undirected edge: both arcs start at capacity c; pushing along one
           raises the residual of the other, which is exactly undirected
           flow semantics. *)
        arcs.(e.Graph.u).(iu) <- { dst = e.Graph.v; cap = c; init_cap = c; rev = iv };
        arcs.(e.Graph.v).(iv) <- { dst = e.Graph.u; cap = c; init_cap = c; rev = iu };
        fill.(e.Graph.u) <- iu + 1;
        fill.(e.Graph.v) <- iv + 1
      end)
    g;
  { n; arcs; last_source = -1 }

let bfs_levels net s =
  let level = Array.make net.n (-1) in
  level.(s) <- 0;
  let q = Queue.create () in
  Queue.add s q;
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    Array.iter
      (fun a ->
        if a.cap > 0 && level.(a.dst) < 0 then begin
          level.(a.dst) <- level.(v) + 1;
          Queue.add a.dst q
        end)
      net.arcs.(v)
  done;
  level

let max_flow ?limit net ~s ~t =
  Array.iter (fun row -> Array.iter (fun a -> a.cap <- a.init_cap) row) net.arcs;
  net.last_source <- s;
  let flow = ref 0 in
  let continue = ref true in
  let hit_limit () = match limit with None -> false | Some l -> !flow >= l in
  while !continue && not (hit_limit ()) do
    let level = bfs_levels net s in
    if level.(t) < 0 then continue := false
    else begin
      let iter = Array.make net.n 0 in
      let rec dfs v pushed =
        if v = t then pushed
        else begin
          let result = ref 0 in
          while !result = 0 && iter.(v) < Array.length net.arcs.(v) do
            let a = net.arcs.(v).(iter.(v)) in
            if a.cap > 0 && level.(a.dst) = level.(v) + 1 then begin
              let d = dfs a.dst (min pushed a.cap) in
              if d > 0 then begin
                a.cap <- a.cap - d;
                let back = net.arcs.(a.dst).(a.rev) in
                back.cap <- back.cap + d;
                result := d
              end
              else iter.(v) <- iter.(v) + 1
            end
            else iter.(v) <- iter.(v) + 1
          done;
          !result
        end
      in
      let rec push_all () =
        if not (hit_limit ()) then begin
          let d = dfs s max_int in
          if d > 0 then begin
            flow := !flow + d;
            push_all ()
          end
        end
      in
      push_all ()
    end
  done;
  match limit with None -> !flow | Some l -> min !flow l

let min_cut_side net =
  if net.last_source < 0 then invalid_arg "Maxflow.min_cut_side: run max_flow first";
  let level = bfs_levels net net.last_source in
  let side = Bitset.create net.n in
  Array.iteri (fun v l -> if l >= 0 then Bitset.add side v) level;
  side

let cut_edges ?mask g side =
  let allowed id = match mask with None -> true | Some s -> Bitset.mem s id in
  Graph.fold_edges
    (fun e acc ->
      if allowed e.Graph.id && Bitset.mem side e.Graph.u <> Bitset.mem side e.Graph.v
      then e.Graph.id :: acc
      else acc)
    g []
  |> List.sort compare
