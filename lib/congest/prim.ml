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

(* ---------- BFS tree ---------- *)

type bfs_state = { mutable parent_edge : int; mutable joined : bool }

let bfs_tree ledger g ~root =
  (* unreached vertices would stay [`Active] until the pass limit, so a
     disconnected graph is refused before any engine pass *)
  if not (Graph.is_connected g) then
    invalid_arg "Prim.bfs_tree: disconnected graph";
  Kecss_obs.Trace.span (Rounds.trace ledger) "bfs" @@ fun () ->
  let program : bfs_state Network.program =
    {
      init = (fun v -> { parent_edge = -1; joined = v = root });
      step =
        (fun ~round v st inbox ->
          if v = root && round = 0 then begin
            (* flood the join token on every incident edge *)
            let sends = ref [] in
            for i = Graph.degree g v - 1 downto 0 do
              sends :=
                { Network.edge = Graph.adj_eid_at g v i; payload = [| 0 |] }
                :: !sends
            done;
            (!sends, `Idle)
          end
          else if (not st.joined) && inbox <> [] then begin
            let best =
              List.fold_left (fun acc (id, _) -> min acc id) max_int inbox
            in
            st.parent_edge <- best;
            st.joined <- true;
            let sends = ref [] in
            for i = Graph.degree g v - 1 downto 0 do
              let id = Graph.adj_eid_at g v i in
              if id <> best then
                sends := { Network.edge = id; payload = [| 0 |] } :: !sends
            done;
            (!sends, `Idle)
          end
          else ([], if st.joined then `Idle else `Active));
    }
  in
  let states = engine ledger ~category:"bfs" g program in
  let pe = Array.map (fun st -> st.parent_edge) states in
  Rooted_tree.of_parent_edges g ~root pe

(* ---------- single-round exchange ---------- *)

type exch_state = { mutable got : int array Network.inbox }

let exchange ledger g sends =
  let program : exch_state Network.program =
    {
      init = (fun _ -> { got = [] });
      step =
        (fun ~round v st inbox ->
          if round = 0 then (sends v, `Idle)
          else begin
            st.got <- inbox @ st.got;
            ([], `Idle)
          end);
    }
  in
  let states = engine ledger ~category:"exchange" g program in
  Array.map (fun st -> st.got) states

(* ---------- convergecast wave ---------- *)

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
            pending = List.length f.Forest.children.(v);
            child_values = [];
            fired = false;
            value = [||];
          });
      step =
        (fun ~round:_ v st inbox ->
          List.iter
            (fun (_, payload) ->
              st.child_values <- payload :: st.child_values;
              st.pending <- st.pending - 1)
            inbox;
          if (not st.fired) && st.pending = 0 then begin
            st.fired <- true;
            st.value <- value v st.child_values;
            if f.Forest.parent_edge.(v) >= 0 then
              ( [ { Network.edge = f.Forest.parent_edge.(v); payload = st.value } ],
                `Idle )
            else ([], `Idle)
          end
          else ([], if st.fired then `Idle else `Active));
    }
  in
  let states = engine ledger ~category:"wave_up" f.Forest.graph program in
  Array.map (fun st -> st.value) states

(* ---------- broadcast wave ---------- *)

type down_state = { mutable value : int array; mutable have : bool }

let wave_down ledger (f : Forest.t) ~root_value ~derive =
  let send_children v payload =
    List.map
      (fun c -> { Network.edge = f.Forest.parent_edge.(c); payload })
      f.Forest.children.(v)
  in
  let program : down_state Network.program =
    {
      init = (fun _ -> { value = [||]; have = false });
      step =
        (fun ~round v st inbox ->
          if round = 0 && f.Forest.parent.(v) < 0 then begin
            st.value <- root_value v;
            st.have <- true;
            (send_children v st.value, `Idle)
          end
          else
            match inbox with
            | [ (_, parent_value) ] when not st.have ->
              st.value <- derive v ~parent_value;
              st.have <- true;
              (send_children v st.value, `Idle)
            | _ -> ([], if st.have then `Idle else `Active));
    }
  in
  let states = engine ledger ~category:"wave_down" f.Forest.graph program in
  Array.map (fun st -> st.value) states

(* ---------- pipelined root-path dissemination ---------- *)

type pipe_state = {
  queue : int array Queue.t; (* [|origin; payload...|] messages to forward *)
  mutable received : int array list; (* reverse order *)
}

let down_pipeline ?(record = true) ledger (f : Forest.t) ~emit =
  let program : pipe_state Network.program =
    {
      init =
        (fun v ->
          let q = Queue.create () in
          List.iter
            (fun payload -> Queue.add (Array.append [| v |] payload) q)
            (emit v);
          { queue = q; received = [] });
      step =
        (fun ~round:_ v st inbox ->
          List.iter
            (fun (_, msg) ->
              (* the message array is immutable in flight, so it is queued
                 and forwarded as-is — no per-hop repacking *)
              if record then st.received <- msg :: st.received;
              Queue.add msg st.queue)
            inbox;
          if Queue.is_empty st.queue then ([], `Idle)
          else begin
            let msg = Queue.pop st.queue in
            let sends =
              List.map
                (fun c -> { Network.edge = f.Forest.parent_edge.(c); payload = msg })
                f.Forest.children.(v)
            in
            (sends, (if Queue.is_empty st.queue then `Idle else `Active))
          end);
    }
  in
  let states = engine ledger ~category:"down_pipeline" f.Forest.graph program in
  Array.map
    (fun st ->
      List.rev_map
        (fun msg -> (msg.(0), Array.sub msg 1 (Array.length msg - 1)))
        st.received)
    states

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
  (* memoize: [lengths] may hide LCA/depth lookups and the step below
     reads every incident edge's length every round *)
  let len = Array.init (Graph.m g) lengths in
  let program : unit Network.program =
    {
      init = (fun _ -> ());
      step =
        (fun ~round v () _ ->
          let sends = ref [] and more = ref false in
          for i = Graph.degree g v - 1 downto 0 do
            let id = Graph.adj_eid_at g v i in
            let l = len.(id) in
            if round < l then begin
              sends := { Network.edge = id; payload = [| round |] } :: !sends;
              if round + 1 < l then more := true
            end
          done;
          (!sends, if !more then `Active else `Idle));
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
        (fun ~round:_ v st inbox ->
          st.tokens <- st.tokens + List.length inbox;
          if st.tokens = 0 then ([], `Idle)
          else if f.Forest.parent_edge.(v) < 0 then begin
            st.tokens <- 0;
            ([], `Idle)
          end
          else begin
            st.tokens <- st.tokens - 1;
            ( [ { Network.edge = f.Forest.parent_edge.(v); payload = [| 0 |] } ],
              if st.tokens = 0 then `Idle else `Active )
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
          let child_edges =
            List.map (fun c -> f.Forest.parent_edge.(c)) f.Forest.children.(v)
            |> Array.of_list
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
        (fun ~round:_ v st inbox ->
          List.iter
            (fun (edge, msg) ->
              let s = stream_for st edge in
              if msg.(0) = 1 then s.closed <- true
              else
                Queue.add (msg.(1), Array.sub msg 2 (Array.length msg - 2)) s.entries)
            inbox;
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
            ([], if all_drained st then `Idle else `Active)
          end
          else if st.sent_done then ([], `Idle)
          else if ready st then
            match heads st with
            | Some k ->
              let payload = pop_key st k in
              let msg = Array.concat [ [| 0; k |]; payload ] in
              ( [ { Network.edge = f.Forest.parent_edge.(v); payload = msg } ],
                `Active )
            | None ->
              if all_drained st then begin
                st.sent_done <- true;
                ( [ { Network.edge = f.Forest.parent_edge.(v); payload = [| 1 |] } ],
                  `Idle )
              end
              else ([], `Active)
          else ([], `Active));
    }
  in
  let states = engine ledger ~category:"up_pipeline" f.Forest.graph program in
  Array.map (fun st -> List.rev st.results) states
