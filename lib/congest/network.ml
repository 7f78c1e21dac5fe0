open Kecss_graph
module Probe = Kecss_obs.Probe
module Pool = Kecss_par.Pool

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

(* Below this many eligible vertices a round's step pass runs inline:
   batch submission costs a few µs and the engine may run tens of
   thousands of passes, so tiny rounds must not pay it.  The default was
   picked from the measured sweep in EXPERIMENTS.md ("Scaling"); override
   per-process with [set_par_threshold] (the CLI's [--par-threshold]) or
   the [KECSS_PAR_THRESHOLD] environment variable. *)
let default_par_threshold = 512

let env_par_threshold =
  lazy
    (match Sys.getenv_opt "KECSS_PAR_THRESHOLD" with
    | None -> None
    | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some t when t >= 1 -> Some t
      | _ -> None))

let par_threshold_override = ref None

let set_par_threshold t =
  if t < 1 then invalid_arg "Network.set_par_threshold: must be >= 1";
  par_threshold_override := Some t

let par_threshold () =
  match !par_threshold_override with
  | Some t -> t
  | None -> (
    match Lazy.force env_par_threshold with
    | Some t -> t
    | None -> default_par_threshold)

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

let run_counted ?(probe = Probe.noop) ?hook ?max_rounds ?pool g p =
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
  (* per-vertex step results: 0 it steps to (or is crash-stopped as)
     [`Idle], 1 it is planned to step, 2 it stepped to [`Active] *)
  let statuses = Array.make n 0 in
  let sent : send list array = Array.make n [] in
  let in_flight = ref 0 in
  let round = ref 0 in
  let counted = ref 0 in
  let messages = ref 0 in
  (* deliveries whose injected delay has not yet elapsed:
     (due pass, destination, edge, payload, causal id) *)
  let delayed = ref [] in
  let obs = Probe.enabled probe in
  (* causal ids and parent sets mirror [inboxes] exactly; both are read
     and written only in the sequential passes below, so the recorded
     stream is independent of the pool size *)
  let cobs = Probe.causal_ids probe in
  let inbox_ids : int list array = if cobs then Array.make n [] else [||] in
  let parent_ids : int list array = if cobs then Array.make n [] else [||] in
  (* The frontier: the vertices the next pass must step, i.e. those that
     are active or hold delivered mail.  A vertex enters it by stepping
     to [`Active] or by receiving a message.  Each pass reads it in
     ascending order into [work] and clears it, so every phase of a pass
     walks [work] and a pass costs O(n/63 + frontier), not O(n). *)
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
  let pool_now = lazy (match pool with Some t -> t | None -> Pool.default ()) in
  let threshold = par_threshold () in
  if obs then Probe.run_begin probe ~n;
  while (!in_flight > 0 || !active_count > 0) && !round < max_rounds do
    (match hook with Some h -> h.round_begin ~round:!round | None -> ());
    if obs then Probe.round_begin probe;
    wl := 0;
    Bitset.iter push frontier;
    Bitset.clear frontier;
    let wl_now = !wl in
    (* plan pass: sequential and ascending, so all hook calls ([alive],
       like everything else hook-related) happen on the engine domain in
       vertex order *)
    let eligible = ref 0 in
    for i = 0 to wl_now - 1 do
      let v = work.(i) in
      if match hook with Some h -> h.alive ~round:!round v | None -> true
      then begin
        statuses.(v) <- 1;
        incr eligible;
        (* the messages delivered to [v] last pass are the parents of
           everything it sends this pass *)
        if cobs then parent_ids.(v) <- inbox_ids.(v)
      end
      else begin
        (* crash-stop: the vertex neither steps nor sends, no longer
           wants rounds, and its delivered messages are lost *)
        statuses.(v) <- 0;
        if obs then Probe.on_crash probe ~vertex:v
      end
    done;
    (* step pass: consume inboxes, collect sends.  Each domain owns a
       static contiguous slice of [work] and writes the sends of its
       vertices into their own [sent] mailbox cells; a task touches only
       vertex-owned cells ([states.(v)] by mutation, [statuses.(v)],
       [sent.(v)]), so the split is invisible.  [set_active] — the shared
       active count — is applied sequentially afterwards, in vertex
       order. *)
    let nshards =
      if !eligible >= threshold && wl_now > 1 && not (Pool.in_task ()) then
        min (Pool.jobs (Lazy.force pool_now)) wl_now
      else 1
    in
    let step_slice lo hi =
      for i = lo to hi - 1 do
        let v = work.(i) in
        if statuses.(v) = 1 then begin
          let sends, status = p.step ~round:!round v states.(v) inboxes.(v) in
          statuses.(v) <- (if status = `Active then 2 else 0);
          sent.(v) <- sends
        end
      done
    in
    if nshards = 1 then step_slice 0 wl_now
    else
      Pool.run_batch (Lazy.force pool_now) ~ntasks:nshards (fun d ->
          step_slice (d * wl_now / nshards) ((d + 1) * wl_now / nshards));
    (* every inbox in [work] is consumed (crash-stopped vertices lose
       their deliveries); vertices outside it hold nothing *)
    for i = 0 to wl_now - 1 do
      let v = work.(i) in
      let b = statuses.(v) = 2 in
      if obs && active.(v) <> b then Probe.on_active probe ~vertex:v ~active:b;
      set_active v b;
      if b then Bitset.add frontier v;
      inboxes.(v) <- [];
      if cobs then inbox_ids.(v) <- []
    done;
    in_flight := 0;
    (* delivery pass: sequential over [work] in ascending sender order,
       whatever the pool size *)
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

let run ?max_rounds ?pool g p =
  let states, rounds, _ = run_counted ?max_rounds ?pool g p in
  (states, rounds)
