(* Causal message recorder.

   The engine assigns every sent CONGEST message a compact id in its
   sequential delivery pass (ids are dense, ascending with the pass
   order), together with a *parent set*: the ids of the messages the
   sender received at the end of the previous round, i.e. the messages
   that enabled this send.  Because delivery is sequential and a message
   can only be enabled by messages delivered in an earlier pass, every
   parent id is strictly smaller than the message's own id — which lets
   the longest-dependency-chain depth of each message be maintained
   online with one max over the parent set, no graph traversal.

   All per-message columns live in flat int arrays grown by doubling, so
   recording a message is a handful of array writes.  Parent sets are
   interned once per stepping vertex per pass (a "group"): every message
   a vertex sends in one round shares the same enabling inbox, so the
   group stores the parent list, its max depth and the argmax parent
   once, and each message just points at its group. *)

type buf = { mutable a : int array; mutable len : int }

let buf_make hint = { a = Array.make hint 0; len = 0 }

let buf_push b x =
  if b.len = Array.length b.a then begin
    let a' = Array.make (2 * Array.length b.a) 0 in
    Array.blit b.a 0 a' 0 b.len;
    b.a <- a'
  end;
  b.a.(b.len) <- x;
  b.len <- b.len + 1

type recording = {
  (* per-message columns, indexed by message id *)
  m_round : buf; (* counted-round index at send time *)
  m_src : buf;
  m_dst : buf;
  m_edge : buf;
  m_group : buf;
  m_depth : buf; (* longest chain ending at this message, in messages *)
  m_run : buf; (* engine-run ordinal *)
  m_phase : buf; (* interned phase path at send time *)
  (* interned parent groups: CSR into [g_par] plus cached depth/argmax *)
  g_off : buf; (* length gn+1: group g's parents are g_par[g_off g .. g_off (g+1)) *)
  g_par : buf;
  g_depth : buf; (* max parent depth (0 for the empty group) *)
  g_best : buf; (* parent id of max depth, ties to the smaller id; -1 none *)
  (* per counted engine round *)
  r_phase : buf;
  r_run : buf;
  mutable runs : int; (* engine runs begun *)
  (* interned phase paths, maintained by phase_begin/phase_end *)
  phase_tbl : (string, int) Hashtbl.t;
  mutable phase_names : string array;
  mutable phases : int;
  mutable stack : string list; (* innermost first *)
  mutable cur : int; (* interned id of the current joined path *)
}

type t = Noop | Recording of recording

let noop = Noop

let intern r name =
  match Hashtbl.find_opt r.phase_tbl name with
  | Some i -> i
  | None ->
    let i = r.phases in
    if i = Array.length r.phase_names then begin
      let a' = Array.make (2 * i) "" in
      Array.blit r.phase_names 0 a' 0 i;
      r.phase_names <- a'
    end;
    r.phase_names.(i) <- name;
    r.phases <- i + 1;
    Hashtbl.add r.phase_tbl name i;
    i

let create () =
  let r =
    {
      m_round = buf_make 1024;
      m_src = buf_make 1024;
      m_dst = buf_make 1024;
      m_edge = buf_make 1024;
      m_group = buf_make 1024;
      m_depth = buf_make 1024;
      m_run = buf_make 1024;
      m_phase = buf_make 1024;
      g_off = buf_make 256;
      g_par = buf_make 1024;
      g_depth = buf_make 256;
      g_best = buf_make 256;
      r_phase = buf_make 256;
      r_run = buf_make 256;
      runs = 0;
      phase_tbl = Hashtbl.create 16;
      phase_names = Array.make 8 "";
      phases = 0;
      stack = [];
      cur = 0;
    }
  in
  r.cur <- intern r "";
  (* group 0 is the shared empty parent set: spontaneous sends (round-0
     floods, token injections) all point here *)
  buf_push r.g_off 0;
  buf_push r.g_off 0;
  buf_push r.g_depth 0;
  buf_push r.g_best (-1);
  Recording r

let enabled = function Noop -> false | Recording _ -> true

(* ----- phase scope ----- *)

let recompute_cur r =
  r.cur <- intern r (String.concat "/" (List.rev r.stack))

let phase_begin t name =
  match t with
  | Noop -> ()
  | Recording r ->
    r.stack <- name :: r.stack;
    recompute_cur r

let phase_end t =
  match t with
  | Noop -> ()
  | Recording r -> (
    match r.stack with
    | [] -> invalid_arg "Causal.phase_end: no open phase"
    | _ :: rest ->
      r.stack <- rest;
      recompute_cur r)

(* ----- engine-facing recording ----- *)

let run_begin t =
  match t with Noop -> () | Recording r -> r.runs <- r.runs + 1

let group t ~parents =
  match t with
  | Noop -> 0
  | Recording r -> (
    match parents with
    | [] -> 0
    | parents ->
      let g = r.g_depth.len in
      let depth = ref 0 and best = ref (-1) in
      List.iter
        (fun p ->
          buf_push r.g_par p;
          let d = r.m_depth.a.(p) in
          if d > !depth || (d = !depth && (!best = -1 || p < !best)) then begin
            depth := d;
            best := p
          end)
        parents;
      buf_push r.g_off r.g_par.len;
      buf_push r.g_depth !depth;
      buf_push r.g_best !best;
      g)

let on_send t ~src ~dst ~edge ~group =
  match t with
  | Noop -> -1
  | Recording r ->
    let id = r.m_round.len in
    buf_push r.m_round r.r_phase.len;
    buf_push r.m_src src;
    buf_push r.m_dst dst;
    buf_push r.m_edge edge;
    buf_push r.m_group group;
    buf_push r.m_depth (r.g_depth.a.(group) + 1);
    buf_push r.m_run (r.runs - 1);
    buf_push r.m_phase r.cur;
    id

let on_round t =
  match t with
  | Noop -> ()
  | Recording r ->
    buf_push r.r_phase r.cur;
    buf_push r.r_run (r.runs - 1)

(* Appends the child's DAG after this one's: its message ids, groups,
   counted rounds and runs shift past ours and its phase names are
   re-interned, so the joined recorder analyzes like one that recorded
   both runs in sequence. Group 0, the shared empty parent set, maps to
   ours. *)
let join parent child =
  match (parent, child) with
  | Recording p, Recording c ->
    let id0 = p.m_round.len and round0 = p.r_phase.len and run0 = p.runs in
    let group0 = p.g_depth.len - 1 in
    let group g = if g = 0 then 0 else g + group0 in
    let phase = Array.init c.phases (fun i -> intern p c.phase_names.(i)) in
    for g = 1 to c.g_depth.len - 1 do
      for j = c.g_off.a.(g) to c.g_off.a.(g + 1) - 1 do
        buf_push p.g_par (c.g_par.a.(j) + id0)
      done;
      buf_push p.g_off p.g_par.len;
      buf_push p.g_depth c.g_depth.a.(g);
      let best = c.g_best.a.(g) in
      buf_push p.g_best (if best < 0 then best else best + id0)
    done;
    for i = 0 to c.m_round.len - 1 do
      buf_push p.m_round (c.m_round.a.(i) + round0);
      buf_push p.m_src c.m_src.a.(i);
      buf_push p.m_dst c.m_dst.a.(i);
      buf_push p.m_edge c.m_edge.a.(i);
      buf_push p.m_group (group c.m_group.a.(i));
      buf_push p.m_depth c.m_depth.a.(i);
      buf_push p.m_run (c.m_run.a.(i) + run0);
      buf_push p.m_phase phase.(c.m_phase.a.(i))
    done;
    for i = 0 to c.r_phase.len - 1 do
      buf_push p.r_phase phase.(c.r_phase.a.(i));
      buf_push p.r_run (c.r_run.a.(i) + run0)
    done;
    p.runs <- p.runs + c.runs
  | _ -> ()

let messages t = match t with Noop -> 0 | Recording r -> r.m_round.len
let rounds t = match t with Noop -> 0 | Recording r -> r.r_phase.len
let runs t = match t with Noop -> 0 | Recording r -> r.runs

(* ----- post-run analysis ----- *)

type phase_row = {
  ph_name : string;
  ph_rounds : int; (* counted engine rounds attributed to the phase *)
  ph_messages : int;
  ph_crit : int; (* hops of per-run critical chains landing in the phase *)
}

type chain = {
  ch_len : int; (* messages on the chain *)
  ch_vertex : int; (* destination of the final message *)
  ch_edge : int; (* edge carrying the final message *)
  ch_first : int; (* counted-round index of the first hop *)
  ch_last : int; (* counted-round index of the final hop *)
  ch_phase : string; (* phase of the final hop *)
}

type slack_row = { sl_vertex : int; sl_slack : int; sl_messages : int }

type report = {
  rp_rounds : int;
  rp_messages : int;
  rp_runs : int;
  rp_critical : int; (* longest single dependency chain *)
  rp_critical_rounds : int; (* sum of per-engine-run longest chains *)
  rp_phases : phase_row list;
  rp_chains : chain list; (* chain endpoints, longest first *)
  rp_slack : slack_row list; (* per-sender min slack, tightest first *)
  rp_zero_slack : int; (* senders with a zero-slack message *)
}

let display_phase = function "" -> "(unscoped)" | p -> p

let analyze ?(chains = 32) ?(slack = 32) t =
  match t with
  | Noop ->
    {
      rp_rounds = 0;
      rp_messages = 0;
      rp_runs = 0;
      rp_critical = 0;
      rp_critical_rounds = 0;
      rp_phases = [];
      rp_chains = [];
      rp_slack = [];
      rp_zero_slack = 0;
    }
  | Recording r ->
    let m = r.m_round.len in
    let runs = r.runs in
    (* height: longest chain of dependants hanging off each message.
       Parents always have smaller ids, so one reverse pass relaxes every
       edge of the dependency DAG. *)
    let height = Array.make (max m 1) 0 in
    for i = m - 1 downto 0 do
      let g = r.m_group.a.(i) in
      let h = height.(i) + 1 in
      for j = r.g_off.a.(g) to r.g_off.a.(g + 1) - 1 do
        let p = r.g_par.a.(j) in
        if height.(p) < h then height.(p) <- h
      done
    done;
    (* per-run longest chain: depth max and its endpoint (ties to the
       smaller id, which is also the earlier message) *)
    let run_len = Array.make (max runs 1) 0 in
    let run_end = Array.make (max runs 1) (-1) in
    let critical = ref 0 in
    for i = 0 to m - 1 do
      let run = r.m_run.a.(i) in
      let d = r.m_depth.a.(i) in
      if d > run_len.(run) then begin
        run_len.(run) <- d;
        run_end.(run) <- i
      end;
      if d > !critical then critical := d
    done;
    let critical_rounds = Array.fold_left ( + ) 0 run_len in
    (* per-phase accumulators *)
    let np = r.phases in
    let ph_rounds = Array.make (max np 1) 0 in
    let ph_messages = Array.make (max np 1) 0 in
    let ph_crit = Array.make (max np 1) 0 in
    for i = 0 to r.r_phase.len - 1 do
      let p = r.r_phase.a.(i) in
      ph_rounds.(p) <- ph_rounds.(p) + 1
    done;
    for i = 0 to m - 1 do
      let p = r.m_phase.a.(i) in
      ph_messages.(p) <- ph_messages.(p) + 1
    done;
    (* walk each run's critical chain backwards, attributing hops *)
    for run = 0 to runs - 1 do
      let cur = ref run_end.(run) in
      while !cur >= 0 do
        let p = r.m_phase.a.(!cur) in
        ph_crit.(p) <- ph_crit.(p) + 1;
        cur := r.g_best.a.(r.m_group.a.(!cur))
      done
    done;
    let phase_rows =
      List.init np (fun p ->
          {
            ph_name = display_phase r.phase_names.(p);
            ph_rounds = ph_rounds.(p);
            ph_messages = ph_messages.(p);
            ph_crit = ph_crit.(p);
          })
      |> List.filter (fun row ->
             row.ph_rounds > 0 || row.ph_messages > 0 || row.ph_crit > 0)
      |> List.sort (fun a b -> String.compare a.ph_name b.ph_name)
    in
    (* chain endpoints: messages no other message depends on, longest
       first.  A partial selection sort keeps only the requested top. *)
    let endpoints = ref [] in
    for i = m - 1 downto 0 do
      if height.(i) = 0 then endpoints := i :: !endpoints
    done;
    let ends = Array.of_list !endpoints in
    Array.sort
      (fun a b ->
        let c = compare r.m_depth.a.(b) r.m_depth.a.(a) in
        if c <> 0 then c else compare a b)
      ends;
    let chain_of i =
      (* first hop: follow best parents to the root of the chain *)
      let first = ref i in
      let cur = ref (r.g_best.a.(r.m_group.a.(i))) in
      while !cur >= 0 do
        first := !cur;
        cur := r.g_best.a.(r.m_group.a.(!cur))
      done;
      {
        ch_len = r.m_depth.a.(i);
        ch_vertex = r.m_dst.a.(i);
        ch_edge = r.m_edge.a.(i);
        ch_first = r.m_round.a.(!first);
        ch_last = r.m_round.a.(i);
        ch_phase = display_phase r.phase_names.(r.m_phase.a.(i));
      }
    in
    let chain_rows =
      List.init (min chains (Array.length ends)) (fun j -> chain_of ends.(j))
    in
    (* slack: how many hops each sender's tightest message sits off its
       run's critical chain.  0 means the sender is on a critical chain. *)
    let nv = ref 0 in
    for i = 0 to m - 1 do
      if r.m_src.a.(i) >= !nv then nv := r.m_src.a.(i) + 1
    done;
    let v_slack = Array.make (max !nv 1) max_int in
    let v_msgs = Array.make (max !nv 1) 0 in
    for i = 0 to m - 1 do
      let v = r.m_src.a.(i) in
      let s = run_len.(r.m_run.a.(i)) - (r.m_depth.a.(i) + height.(i)) in
      if s < v_slack.(v) then v_slack.(v) <- s;
      v_msgs.(v) <- v_msgs.(v) + 1
    done;
    let senders = ref [] in
    for v = !nv - 1 downto 0 do
      if v_msgs.(v) > 0 then senders := v :: !senders
    done;
    let sends = Array.of_list !senders in
    Array.sort
      (fun a b ->
        let c = compare v_slack.(a) v_slack.(b) in
        if c <> 0 then c else compare a b)
      sends;
    let zero_slack =
      Array.fold_left (fun acc v -> if v_slack.(v) = 0 then acc + 1 else acc) 0 sends
    in
    let slack_rows =
      List.init (min slack (Array.length sends)) (fun j ->
          let v = sends.(j) in
          { sl_vertex = v; sl_slack = v_slack.(v); sl_messages = v_msgs.(v) })
    in
    {
      rp_rounds = r.r_phase.len;
      rp_messages = m;
      rp_runs = runs;
      rp_critical = !critical;
      rp_critical_rounds = critical_rounds;
      rp_phases = phase_rows;
      rp_chains = chain_rows;
      rp_slack = slack_rows;
      rp_zero_slack = zero_slack;
    }
