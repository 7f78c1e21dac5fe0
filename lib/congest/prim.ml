open Kecss_graph

(* One engine run on behalf of a primitive: the ledger's probe and fault
   hook are threaded into the engine, the run executes as a probe phase
   named like the category it will be charged to (so causal round
   attribution and the ledger breakdown share one naming scheme), and
   the counted rounds/messages land on the ledger. *)
let engine ledger ~category g program =
  let probe = Rounds.probe ledger in
  let states, rounds, messages =
    Kecss_obs.Probe.phase probe (Run category) (fun () ->
        Network.run_counted ~probe ?hook:(Rounds.hook ledger) g program)
  in
  Rounds.charge ledger ~category rounds;
  Rounds.charge_messages ledger ~category messages;
  states

module Mail = Network.Mail

(* Steps walk their mail with a loop over [Mail.first]/[Mail.next] and
   post through the helpers below, so a step allocates no closure. Every
   program posts by port: to a forest parent or child through the ports
   the forest holds, and across graph edges by its own adjacency row. *)

(* words [pos .. pos + len - 1] of [buf] to each child of [v], in child
   order *)
let post_children out (f : Forest.t) v buf ~pos ~len =
  for j = f.child_off.(v) to f.child_off.(v + 1) - 1 do
    Network.post_sub_port out ~port:f.child_port.(j) buf ~pos ~len
  done

(* received message [m] to each child of [v], in child order *)
let forward_children out (f : Forest.t) v inbox m =
  for j = f.child_off.(v) to f.child_off.(v + 1) - 1 do
    Network.forward_port out ~port:f.child_port.(j) inbox m
  done

(* ---------- BFS tree ---------- *)

type bfs_state = { mutable parent_edge : int; mutable joined : bool }

exception Bfs_unreached of { vertex : int }

let bfs_tree ledger g ~root =
  (* unreached vertices would wait until the pass limit, so a
     disconnected graph is refused before any engine pass *)
  if not (Graph.is_connected g) then
    invalid_arg "Prim.bfs_tree: disconnected graph";
  Kecss_obs.Trace.span (Rounds.trace ledger) "bfs" @@ fun () ->
  let off, _, eid = Graph.adjacency g in
  let program : bfs_state Network.program =
    {
      init = (fun v -> { parent_edge = -1; joined = v = root });
      step =
        (fun ~round v st inbox out ->
          if v = root && round = 0 then begin
            (* flood the join token on every port *)
            for i = 0 to off.(v + 1) - off.(v) - 1 do
              Network.post1_port out ~port:i 0
            done;
            `Idle
          end
          else if (not st.joined) && not (Mail.is_empty inbox) then begin
            let best = ref max_int and m = ref (Mail.first inbox) in
            while !m >= 0 do
              let id = Mail.edge inbox !m in
              if id < !best then best := id;
              m := Mail.next inbox !m
            done;
            st.parent_edge <- !best;
            st.joined <- true;
            let lo = off.(v) in
            for k = lo to off.(v + 1) - 1 do
              if eid.(k) <> !best then Network.post1_port out ~port:(k - lo) 0
            done;
            `Idle
          end
          else if st.joined then `Idle
          else `Wait);
    }
  in
  let states = engine ledger ~category:"bfs" g program in
  let pe = Array.map (fun st -> st.parent_edge) states in
  Array.iteri
    (fun v e -> if e < 0 && v <> root then raise (Bfs_unreached { vertex = v }))
    pe;
  Rooted_tree.of_parent_edges g ~root pe

(* ---------- single-round exchange ---------- *)

let exchange_in_place ?read ledger g ~post =
  let program : unit Network.program =
    {
      init = (fun _ -> ());
      step =
        (fun ~round v () mail out ->
          (if round = 0 then post v out
           else match read with Some read -> read v mail | None -> ());
          `Idle);
    }
  in
  ignore (engine ledger ~category:"exchange" g program)

(* the position of edge [e] in the ascending ids [eid.(lo .. hi - 1)],
   or -1 *)
let rec row_search eid e lo hi =
  if lo >= hi then -1
  else
    let mid = (lo + hi) / 2 in
    let x = eid.(mid) in
    if x = e then mid
    else if x < e then row_search eid e (mid + 1) hi
    else row_search eid e lo mid

(* each send on the port of its edge, found in the sender's row *)
let exchange ledger g sends =
  let off, _, eid = Graph.adjacency g in
  exchange_in_place ledger g ~post:(fun v out ->
      let lo = off.(v) in
      List.iter
        (fun { Network.edge; payload } ->
          let k = row_search eid edge lo off.(v + 1) in
          if k < 0 then
            invalid_arg
              (Printf.sprintf "Prim.exchange: edge %d is not incident to vertex %d"
                 edge v);
          Network.post_port out ~port:(k - lo) payload)
        (sends v))

(* ---------- convergecast wave ---------- *)

(* The waves count each sender once. A send the network replicates
   arrives as copies in one pass, one after another in the receiver's
   chain (Network's delivery order), so [wave_up] skips a message on the
   edge of the one before it, and [wave_down], whose only sender is the
   parent, takes the first copy. *)

type up_state = {
  mutable pending : int;              (* children not yet heard from *)
  mutable child_values : int array list;
  mutable fired : bool;
  mutable value : int array;
}

let wave_up ledger (f : Forest.t) ~value =
  let program : up_state Network.program =
    {
      init =
        (fun v ->
          {
            pending = f.child_off.(v + 1) - f.child_off.(v);
            child_values = [];
            fired = false;
            value = [||];
          });
      step =
        (fun ~round:_ v st inbox out ->
          let m = ref (Mail.first inbox) and last = ref (-1) in
          while !m >= 0 do
            let e = Mail.edge inbox !m in
            if e <> !last then begin
              st.child_values <- Mail.payload inbox !m :: st.child_values;
              st.pending <- st.pending - 1
            end;
            last := e;
            m := Mail.next inbox !m
          done;
          if (not st.fired) && st.pending = 0 then begin
            st.fired <- true;
            st.value <- value v st.child_values;
            if f.parent_port.(v) >= 0 then
              Network.post_port out ~port:f.parent_port.(v) st.value;
            `Idle
          end
          else if st.fired then `Idle
          else `Wait);
    }
  in
  let states = engine ledger ~category:"wave_up" f.Forest.graph program in
  Array.map (fun st -> st.value) states

(* ---------- broadcast wave ---------- *)

type down_state = { mutable value : int array; mutable have : bool }

let wave_down ledger (f : Forest.t) ~root_value ~derive =
  let program : down_state Network.program =
    {
      init = (fun _ -> { value = [||]; have = false });
      step =
        (fun ~round v st inbox out ->
          if round = 0 && f.Forest.parent.(v) < 0 then begin
            st.value <- root_value v;
            st.have <- true;
            post_children out f v st.value ~pos:0 ~len:(Array.length st.value);
            `Idle
          end
          else
            let m = Mail.first inbox in
            (* the parent's value, or its first copy *)
            if m >= 0 && not st.have then begin
              st.value <- derive v ~parent_value:(Mail.payload inbox m);
              st.have <- true;
              post_children out f v st.value ~pos:0
                ~len:(Array.length st.value);
              `Idle
            end
            else if st.have then `Idle
            else `Wait);
    }
  in
  let states = engine ledger ~category:"wave_down" f.Forest.graph program in
  Array.map (fun st -> st.value) states

(* ---------- pipelined root-path dissemination ---------- *)

(* The messages a vertex has yet to forward, [origin; payload...] each,
   flat in [buf.(head) .. buf.(tail - 1)] as a length word followed by
   the message's words. Draining the queue rewinds it, so a vertex that
   forwards each message the pass after it arrives never grows its
   buffer. *)
type pipe_state = {
  mutable buf : int array;
  mutable head : int;
  mutable tail : int;
  mutable received : (int * int array) list; (* reverse order *)
}

(* room for [need] more words at [tail] *)
let make_room st need =
  if st.tail + need > Array.length st.buf then begin
    let live = st.tail - st.head in
    let buf =
      if live + need > Array.length st.buf then
        Array.make (max 8 (2 * (live + need))) 0
      else st.buf
    in
    Array.blit st.buf st.head buf 0 live;
    st.buf <- buf;
    st.head <- 0;
    st.tail <- live
  end

(* a received [origin; payload...] message, as the result lists it *)
let keep st inbox m =
  st.received <- (Mail.word inbox m 0, Mail.sub inbox m ~pos:1) :: st.received

let enqueue st inbox m =
  let len = Mail.length inbox m in
  make_room st (len + 1);
  st.buf.(st.tail) <- len;
  for i = 0 to len - 1 do
    st.buf.(st.tail + 1 + i) <- Mail.word inbox m i
  done;
  st.tail <- st.tail + len + 1

let down_pipeline ?(record = true) ledger (f : Forest.t) ~emit =
  let program : pipe_state Network.program =
    {
      init =
        (fun v ->
          let own = emit v in
          let need =
            List.fold_left (fun acc p -> acc + 2 + Array.length p) 0 own
          in
          let st =
            {
              buf = (if need = 0 then [||] else Array.make need 0);
              head = 0;
              tail = 0;
              received = [];
            }
          in
          List.iter
            (fun p ->
              let len = Array.length p in
              st.buf.(st.tail) <- len + 1;
              st.buf.(st.tail + 1) <- v;
              Array.blit p 0 st.buf (st.tail + 2) len;
              st.tail <- st.tail + len + 2)
            own;
          st);
      step =
        (fun ~round:_ v st inbox out ->
          let first = Mail.first inbox in
          if st.head = st.tail && first >= 0 && Mail.next inbox first < 0
          then begin
            (* the steady state: one message in and nothing queued, so it
               goes straight on to the children. The queue round trip
               below sends the same, but a deep tree's solve, whose mail
               all comes this way, ran 1.35x as long through it
               (EXPERIMENTS.md, "The flat message plane") *)
            if record then keep st inbox first;
            forward_children out f v inbox first;
            `Idle
          end
          else begin
            let m = ref first in
            while !m >= 0 do
              if record then keep st inbox !m;
              enqueue st inbox !m;
              m := Mail.next inbox !m
            done;
            if st.head = st.tail then `Idle
            else begin
              let len = st.buf.(st.head) in
              let pos = st.head + 1 in
              post_children out f v st.buf ~pos ~len;
              st.head <- pos + len;
              if st.head = st.tail then begin
                st.head <- 0;
                st.tail <- 0;
                `Idle
              end
              else `Active
            end
          end);
    }
  in
  let states = engine ledger ~category:"down_pipeline" f.Forest.graph program in
  Array.map (fun st -> List.rev st.received) states

let broadcast_list ?(record = true) ledger (f : Forest.t) ~items =
  let emit v = if f.Forest.parent.(v) < 0 then items v else [] in
  let received = down_pipeline ~record ledger f ~emit in
  (* a root hears its own list too, so every tree member agrees *)
  if not record then received
  else
    Array.mapi
      (fun v got ->
        if f.Forest.parent.(v) < 0 then List.map (fun p -> (v, p)) (items v)
        else got)
      received

(* ---------- per-edge bidirectional streaming ---------- *)

let edge_stream ledger g ~lengths =
  (* by port: each length once per edge end, laid out like the adjacency
     rows, since [lengths] may hide LCA/depth lookups and the step below
     reads its whole row every round *)
  let off, _, eid = Graph.adjacency g in
  let len = Array.map lengths eid in
  let program : unit Network.program =
    {
      init = (fun _ -> ());
      step =
        (fun ~round v () _ out ->
          let more = ref false in
          let lo = off.(v) in
          for k = lo to off.(v + 1) - 1 do
            let l = len.(k) in
            if round < l then begin
              Network.post1_port out ~port:(k - lo) round;
              if round + 1 < l then more := true
            end
          done;
          if !more then `Active else `Idle);
    }
  in
  ignore (engine ledger ~category:"edge_stream" g program)

(* ---------- token walks towards the root ---------- *)

type walk_state = { mutable tokens : int }

let walk_up ledger (f : Forest.t) ~sources =
  let initial = Array.make (Graph.n f.Forest.graph) 0 in
  List.iter (fun v -> initial.(v) <- initial.(v) + 1) sources;
  let program : walk_state Network.program =
    {
      init = (fun v -> { tokens = initial.(v) });
      step =
        (fun ~round:_ v st inbox out ->
          st.tokens <- st.tokens + Mail.count inbox;
          if st.tokens = 0 then `Idle
          else if f.parent_port.(v) < 0 then begin
            st.tokens <- 0;
            `Idle
          end
          else begin
            st.tokens <- st.tokens - 1;
            Network.post1_port out ~port:f.parent_port.(v) 0;
            if st.tokens = 0 then `Idle else `Active
          end);
    }
  in
  ignore (engine ledger ~category:"walk_up" f.Forest.graph program)

(* ---------- pipelined sorted keyed aggregation ---------- *)

type stream = { entries : (int * int array) Queue.t; mutable closed : bool }

type merge_state = {
  mutable own : (int * int array) list;
  child_edges : int array;
  streams : stream array; (* aligned with child_edges *)
  mutable sent_done : bool;
  mutable results : (int * int array) list; (* root only, reverse *)
}

let up_pipeline_merge ledger (f : Forest.t) ~emit ~combine =
  let check_sorted v entries =
    let rec go = function
      | (k1, _) :: ((k2, _) :: _ as rest) ->
        if k1 >= k2 then
          invalid_arg
            (Printf.sprintf
               "Prim.up_pipeline_merge: emissions of vertex %d not strictly \
                sorted" v)
        else go rest
      | _ -> ()
    in
    go entries;
    entries
  in
  let stream_for st edge =
    (* messages only arrive over child edges; linear scan over the (small)
       child list beats a per-vertex hashtable on the hot path *)
    let rec go j =
      if st.child_edges.(j) = edge then st.streams.(j) else go (j + 1)
    in
    go 0
  in
  (* min key ready for merging: every child stream must have a head or be
     closed, otherwise a smaller key may still arrive *)
  let ready st =
    Array.for_all
      (fun s -> s.closed || not (Queue.is_empty s.entries))
      st.streams
  in
  let heads st =
    let acc = ref (match st.own with [] -> None | (k, _) :: _ -> Some k) in
    Array.iter
      (fun s ->
        match Queue.peek_opt s.entries with
        | None -> ()
        | Some (k, _) -> (
          match !acc with Some k' when k' <= k -> () | _ -> acc := Some k))
      st.streams;
    !acc
  in
  let pop_key st key =
    (* fuse every source whose head has this key *)
    let acc = ref None in
    let fuse payload =
      acc := Some (match !acc with None -> payload | Some p -> combine p payload)
    in
    (match st.own with
    | (k, p) :: rest when k = key ->
      fuse p;
      st.own <- rest
    | _ -> ());
    Array.iter
      (fun s ->
        match Queue.peek_opt s.entries with
        | Some (k, p) when k = key ->
          ignore (Queue.pop s.entries);
          fuse p
        | _ -> ())
      st.streams;
    match !acc with Some p -> p | None -> assert false
  in
  let all_drained st =
    st.own = []
    && Array.for_all
         (fun s -> s.closed && Queue.is_empty s.entries)
         st.streams
  in
  let program : merge_state Network.program =
    {
      init =
        (fun v ->
          let lo = f.child_off.(v) in
          let child_edges =
            Array.init
              (f.child_off.(v + 1) - lo)
              (fun j -> f.parent_edge.(f.child.(lo + j)))
          in
          {
            own = check_sorted v (emit v);
            child_edges;
            streams =
              Array.map
                (fun _ -> { entries = Queue.create (); closed = false })
                child_edges;
            sent_done = false;
            results = [];
          });
      step =
        (fun ~round:_ v st inbox out ->
          let m = ref (Mail.first inbox) in
          while !m >= 0 do
            let s = stream_for st (Mail.edge inbox !m) in
            if Mail.word inbox !m 0 = 1 then s.closed <- true
            else
              Queue.add
                (Mail.word inbox !m 1, Mail.sub inbox !m ~pos:2)
                s.entries;
            m := Mail.next inbox !m
          done;
          let is_root = f.Forest.parent.(v) < 0 in
          if is_root then begin
            (* local computation: drain everything currently safe *)
            let continue = ref true in
            while !continue do
              if ready st then
                match heads st with
                | Some k -> st.results <- (k, pop_key st k) :: st.results
                | None -> continue := false
              else continue := false
            done;
            if all_drained st then `Idle else `Wait
          end
          else if st.sent_done then `Idle
          else if ready st then
            match heads st with
            | Some k ->
              let payload = pop_key st k in
              Network.post_port out ~port:f.parent_port.(v)
                (Array.concat [ [| 0; k |]; payload ]);
              `Active
            | None ->
              if all_drained st then begin
                st.sent_done <- true;
                Network.post1_port out ~port:f.parent_port.(v) 1;
                `Idle
              end
              else `Active
          else `Wait);
    }
  in
  let states = engine ledger ~category:"up_pipeline" f.Forest.graph program in
  Array.map (fun st -> List.rev st.results) states
