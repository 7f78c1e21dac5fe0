open Kecss_graph
module Probe = Kecss_obs.Probe

exception Message_too_large of { vertex : int; words : int }
exception Duplicate_send of { vertex : int; edge : int }

exception
  Did_not_quiesce of { rounds : int; active : int; in_flight : int }

let cap_words = 6

(* Scratch for duplicate-send detection, persistent across runs in
   domain-local storage: an edge is a duplicate iff its cell carries the
   current sender's stamp. The stamp counter strictly increases across
   runs, so stale cells from earlier runs (or the zeroed cells of a grown
   buffer) can never match, and a run costs no O(m) allocation. *)
type stamp_scratch = { mutable buf : int array; mutable last : int }

let stamp_key = Domain.DLS.new_key (fun () -> { buf = [||]; last = 0 })

let stamp_scratch m =
  let s = Domain.DLS.get stamp_key in
  if Array.length s.buf < m then s.buf <- Array.make m 0;
  (* rollover guard: re-zero long before the counter could wrap (a run
     bumps the stamp at most once per vertex per pass) *)
  if s.last > max_int / 2 then begin
    Array.fill s.buf 0 (Array.length s.buf) 0;
    s.last <- 0
  end;
  s

(* Every pass steps inline on the calling domain; no pass shards. *)
let par_threshold () = max_int

type send = { edge : int; payload : int array }
type 'a inbox = (int * 'a) list

type fate = Deliver | Drop | Replicate of int | Postpone of int

type hook = {
  round_begin : round:int -> unit;
  alive : round:int -> int -> bool;
  fate : round:int -> src:int -> edge:int -> fate;
}

type 's program = {
  init : int -> 's;
  step :
    round:int -> int -> 's -> int array inbox -> send list * [ `Active | `Idle ];
}

let run_counted ?(probe = Probe.noop) ?hook ?max_rounds g p =
  let n = Graph.n g in
  let max_rounds =
    match max_rounds with Some r -> r | None -> (16 * n) + 10_000
  in
  let states = Array.init n p.init in
  let inboxes : int array inbox array = Array.make n [] in
  let active = Array.make n true in
  (* [active_count] tracks the number of [true] cells in [active] so the
     quiescence test is O(1) instead of an O(n) scan per pass *)
  let active_count = ref n in
  let set_active v b =
    if active.(v) <> b then begin
      active.(v) <- b;
      active_count := !active_count + (if b then 1 else -1)
    end
  in
  let scratch = stamp_scratch (max 1 (Graph.m g)) in
  let used_stamp = scratch.buf in
  let stamp = ref scratch.last in
  let sent : send list array = Array.make n [] in
  let in_flight = ref 0 in
  let round = ref 0 in
  let counted = ref 0 in
  let messages = ref 0 in
  (* deliveries whose injected delay has not yet elapsed:
     (due pass, destination, edge, payload, causal id) *)
  let delayed = ref [] in
  let obs = Probe.enabled probe in
  (* causal ids and parent sets mirror [inboxes] exactly *)
  let cobs = Probe.causal_ids probe in
  let inbox_ids : int list array = if cobs then Array.make n [] else [||] in
  let parent_ids : int list array = if cobs then Array.make n [] else [||] in
  (* The frontier: the vertices the next pass must step, i.e. those that
     are active or hold delivered mail.  A vertex enters it by stepping
     to [`Active] or by receiving a message.  Each pass reads it in
     ascending order into [work] and clears it, so both passes walk [work]
     and a pass costs O(n/63 + frontier), not O(n). *)
  let frontier = Bitset.full n in
  let work = Array.make n 0 in
  let wl = ref 0 in
  let push v =
    work.(!wl) <- v;
    incr wl
  in
  let first_word payload =
    if Array.length payload > 0 then payload.(0) else -1
  in
  (* the one delivery path: normal, replicated and delayed copies alike *)
  let deliver dst edge payload id =
    inboxes.(dst) <- (edge, payload) :: inboxes.(dst);
    if cobs then inbox_ids.(dst) <- id :: inbox_ids.(dst);
    if obs then
      Probe.on_recv probe ~vertex:dst ~edge ~word:(first_word payload);
    incr in_flight;
    Bitset.add frontier dst
  in
  let rec send_all v group = function
    | [] -> ()
    | { edge; payload } :: rest ->
      let words = Array.length payload in
      if words > cap_words then
        raise (Message_too_large { vertex = v; words });
      if used_stamp.(edge) = !stamp then
        raise (Duplicate_send { vertex = v; edge });
      used_stamp.(edge) <- !stamp;
      let dst = Graph.other_end g edge v in
      (* the sender spent its message budget whatever the network then
         does with the copy: sends are counted before the hook rules *)
      incr messages;
      let id =
        if obs then
          Probe.on_send probe ~src:v ~dst ~edge ~word:(first_word payload)
            ~group
        else -1
      in
      let fate =
        match hook with
        | Some h -> h.fate ~round:!round ~src:v ~edge
        | None -> Deliver
      in
      (match fate with
      | Drop -> ()
      | Deliver -> deliver dst edge payload id
      | Replicate copies ->
        for _ = 1 to max 1 copies do
          deliver dst edge payload id
        done
      | Postpone extra when extra <= 0 -> deliver dst edge payload id
      | Postpone extra ->
        delayed := (!round + 1 + extra, dst, edge, payload, id) :: !delayed);
      send_all v group rest
  in
  if obs then Probe.run_begin probe ~n;
  while (!in_flight > 0 || !active_count > 0) && !round < max_rounds do
    (match hook with Some h -> h.round_begin ~round:!round | None -> ());
    if obs then Probe.round_begin probe;
    wl := 0;
    Bitset.iter push frontier;
    Bitset.clear frontier;
    let wl_now = !wl in
    (* step pass, ascending over [work]: gate each vertex on the hook,
       step it, and settle whether it still wants rounds.  Its sends wait
       in [sent] for the delivery pass, so no vertex sees mail sent in
       the pass it steps in.  Every inbox in [work] is consumed
       (crash-stopped vertices lose their deliveries); vertices outside
       it hold nothing. *)
    for i = 0 to wl_now - 1 do
      let v = work.(i) in
      let b =
        if match hook with Some h -> h.alive ~round:!round v | None -> true
        then begin
          (* the messages delivered to [v] last pass are the parents of
             everything it sends this pass *)
          if cobs then parent_ids.(v) <- inbox_ids.(v);
          let sends, status = p.step ~round:!round v states.(v) inboxes.(v) in
          sent.(v) <- sends;
          status = `Active
        end
        else begin
          (* crash-stop: the vertex neither steps nor sends, no longer
             wants rounds, and its delivered messages are lost *)
          if obs then Probe.on_crash probe ~vertex:v;
          false
        end
      in
      if obs && active.(v) <> b then Probe.on_active probe ~vertex:v ~active:b;
      set_active v b;
      if b then Bitset.add frontier v;
      inboxes.(v) <- [];
      if cobs then inbox_ids.(v) <- []
    done;
    in_flight := 0;
    (* delivery pass: over [work] in ascending sender order *)
    for i = 0 to wl_now - 1 do
      let v = work.(i) in
      match sent.(v) with
      | [] -> ()
      | sends ->
        sent.(v) <- [];
        incr stamp;
        (* persisted eagerly so a run aborted by an engine exception
           cannot leave stale cells above the next run's stamps *)
        scratch.last <- !stamp;
        (* every message [v] sends this round was enabled by the same
           inbox, so its parent set is interned once *)
        let group =
          if cobs then Probe.group probe ~parents:parent_ids.(v) else 0
        in
        send_all v group sends
    done;
    if !delayed <> [] then begin
      let due, future =
        List.partition (fun (r, _, _, _, _) -> r <= !round + 1) !delayed
      in
      List.iter
        (fun (_, dst, edge, payload, id) -> deliver dst edge payload id)
        due;
      delayed := future;
      (* a postponed message is still in flight: it must keep the engine
         from declaring quiescence until it lands *)
      in_flight := !in_flight + List.length future
    end;
    incr round;
    (* In the synchronous model a vertex receives, at the end of round r,
       the messages sent in round r; the engine splits this into a send
       pass and a delivery pass.  A pass that only delivers (no sends, no
       vertex still waiting) is the tail of the previous round, not a round
       of its own, so it is not counted. *)
    if !in_flight > 0 || !active_count > 0 then begin
      incr counted;
      (* an uncounted tail pass sends nothing, so summing the per-round
         message series over counted rounds yields the total count *)
      if obs then
        Probe.on_round probe ~messages:!in_flight ~active:!active_count
    end
  done;
  if !in_flight > 0 || !active_count > 0 then begin
    if obs then Probe.run_end probe ~quiesced:false ~rounds:!counted;
    raise
      (Did_not_quiesce
         { rounds = !round; active = !active_count; in_flight = !in_flight })
  end;
  if obs then Probe.run_end probe ~quiesced:true ~rounds:!counted;
  (states, !counted, !messages)

let run ?max_rounds g p =
  let states, rounds, _ = run_counted ?max_rounds g p in
  (states, rounds)
