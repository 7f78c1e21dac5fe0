open Kecss_graph

type summary = { spanning : bool; bridges : int; min_degree : int }

(* One iterative Tarjan lowlink over the graph's CSR rows, reading only
   the entries whose edge is in the mask (one byte per edge id, set from
   the mask once), from every unvisited vertex in turn, calling
   [on_bridge] on each bridge. The stack holds vertices. The top one
   scans its row on from where it stopped, counting its subgraph degree
   and lowering its low point, until it meets an unvisited neighbour
   (pushed) or the row ends (popped). Re-entering the parent through a
   distinct parallel edge is allowed, so parallel edges are never
   bridges. *)
let scan ?mask g ~on_bridge =
  let n = Graph.n g in
  let off, nbr, eid = Graph.adjacency g in
  let inside =
    match mask with
    | None -> Bytes.make (Graph.m g) '\001'
    | Some s ->
      let b = Bytes.make (Graph.m g) '\000' in
      Bitset.iter (fun e -> Bytes.unsafe_set b e '\001') s;
      b
  in
  let disc = Array.make n (-1) and low = Array.make n 0 in
  (* the edge a vertex was entered by, its next port, its degree so far *)
  let entry = Array.make n (-1) and cursor = Array.make n 0 in
  let degree = Array.make n 0 and stack = Array.make n 0 in
  let clock = ref 0 and trees = ref 0 and bridges = ref 0 in
  let min_degree = ref max_int in
  let enter v e sp =
    disc.(v) <- !clock;
    low.(v) <- !clock;
    incr clock;
    entry.(v) <- e;
    cursor.(v) <- off.(v);
    stack.(sp) <- v
  in
  for start = 0 to n - 1 do
    if disc.(start) < 0 then begin
      incr trees;
      enter start (-1) 0;
      let sp = ref 1 in
      while !sp > 0 do
        let v = stack.(!sp - 1) in
        let into = entry.(v) and last = off.(v + 1) in
        let i = ref cursor.(v) and lv = ref low.(v) and d = ref 0 in
        let child = ref (-1) in
        while !child < 0 && !i < last do
          let e = eid.(!i) in
          if Bytes.unsafe_get inside e <> '\000' then begin
            incr d;
            if e <> into then begin
              let w = nbr.(!i) in
              let dw = disc.(w) in
              if dw < 0 then child := w else if dw < !lv then lv := dw
            end
          end;
          incr i
        done;
        cursor.(v) <- !i;
        low.(v) <- !lv;
        degree.(v) <- degree.(v) + !d;
        if !child >= 0 then begin
          enter !child eid.(!i - 1) !sp;
          incr sp
        end
        else begin
          if degree.(v) < !min_degree then min_degree := degree.(v);
          decr sp;
          if !sp > 0 then begin
            let p = stack.(!sp - 1) in
            if low.(v) < low.(p) then low.(p) <- low.(v);
            if low.(v) > disc.(p) then begin
              incr bridges;
              on_bridge into
            end
          end
        end
      done
    end
  done;
  { spanning = !trees = 1; bridges = !bridges; min_degree = !min_degree }

let summary ?mask g = scan ?mask g ~on_bridge:ignore

let bridges ?mask g =
  let acc = ref [] in
  ignore (scan ?mask g ~on_bridge:(fun e -> acc := e :: !acc));
  List.sort Int.compare !acc

let is_two_edge_connected ?mask g =
  let s = summary ?mask g in
  s.spanning && s.bridges = 0

let two_edge_components ?mask g =
  let bs = bridges ?mask g in
  let keep =
    match mask with
    | None -> Graph.all_edges_mask g
    | Some s -> Bitset.copy s
  in
  List.iter (Bitset.remove keep) bs;
  Graph.components ~mask:keep g
