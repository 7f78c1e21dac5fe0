open Kecss_graph
open Kecss_obs
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

(* In-place quicksort over a prefix of an int array (the newly delivered
   segment of the next worklist).  Stdlib [Array.sort] has no range
   variant and sorting a copy would allocate every pass. *)
let sort_range a len =
  let swap i j =
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  in
  let rec go lo hi =
    (* [lo, hi) *)
    if hi - lo > 1 then
      if hi - lo <= 16 then
        for i = lo + 1 to hi - 1 do
          let x = a.(i) in
          let j = ref (i - 1) in
          while !j >= lo && a.(!j) > x do
            a.(!j + 1) <- a.(!j);
            decr j
          done;
          a.(!j + 1) <- x
        done
      else begin
        let mid = lo + ((hi - lo) / 2) in
        if a.(mid) < a.(lo) then swap mid lo;
        if a.(hi - 1) < a.(lo) then swap (hi - 1) lo;
        if a.(hi - 1) < a.(mid) then swap (hi - 1) mid;
        let pivot = a.(mid) in
        let i = ref lo and j = ref (hi - 1) in
        while !i <= !j do
          while a.(!i) < pivot do
            incr i
          done;
          while a.(!j) > pivot do
            decr j
          done;
          if !i <= !j then begin
            swap !i !j;
            incr i;
            decr j
          end
        done;
        go lo (!j + 1);
        go !i hi
      end
  in
  go 0 len

let run_counted ?(metrics = Metrics.noop) ?(causal = Causal.noop)
    ?(flight = Flight.noop) ?hook ?max_rounds ?pool g p =
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
  (* per-vertex phase plan and step results: -1 the vertex is skipped
     this pass, 0 it steps to (or is crash-stopped as) [`Idle], 1 it is
     planned to step, 2 it stepped to [`Active] *)
  let statuses = Array.make n (-1) in
  let sent : send list array = Array.make n [] in
  let in_flight = ref 0 in
  let round = ref 0 in
  let counted = ref 0 in
  let messages = ref 0 in
  (* deliveries whose injected delay has not yet elapsed:
     (due pass, destination, edge, payload) *)
  let delayed = ref [] in
  let observe = Metrics.enabled metrics in
  (* causal ids and parent sets mirror [inboxes] exactly; both are read
     and written only in the sequential passes below, so the recorded
     stream is independent of the pool size *)
  let cobs = Causal.enabled causal in
  let fobs = Flight.enabled flight in
  let inbox_ids : int list array = if cobs then Array.make n [] else [||] in
  let parent_ids : int list array = if cobs then Array.make n [] else [||] in
  (* Worklist: the vertices a pass must consider, in ascending order.
     A pass's candidates are exactly the vertices that are active or hold
     a delivered message, and both ways of entering that set are tracked
     — [`Active] steppers survive via the set_active pass, message
     destinations via the delivery passes — so instead of scanning all
     [n] vertices every pass (a per-pass O(n) floor, fatal at n=10^6) the
     engine touches only the frontier. *)
  let work = Array.init n Fun.id in
  let wl = ref n in
  let surv = Array.make n 0 in
  let sl = ref 0 in
  let deliv = Array.make n 0 in
  let dl = ref 0 in
  let queued = Array.make n false in
  (* pristine identity, blitted back over [work] after a dense pass *)
  let identity = Array.init n Fun.id in
  (* Once a pass has delivered to this many distinct vertices the next
     worklist is within a constant of the identity, so tracking stops:
     the rebuild becomes a blit and the next plan pass's
     active-or-nonempty-inbox filter does the thinning — the delivered
     set is discarded, never missed, because the identity covers it. *)
  let dense = ref false in
  let dense_cap = max 1 (n / 4) in
  let enqueue_deliv v =
    if (not !dense) && not queued.(v) then begin
      queued.(v) <- true;
      deliv.(!dl) <- v;
      incr dl;
      if !dl >= dense_cap then begin
        dense := true;
        (* the flags of everything tracked so far are cleared by the
           next plan pass (the identity worklist spans all vertices) *)
        dl := 0
      end
    end
  in
  let pool_now = lazy (match pool with Some t -> t | None -> Pool.default ()) in
  let threshold = par_threshold () in
  if cobs then Causal.run_begin causal;
  if fobs then Flight.ensure flight n;
  if observe then Metrics.run_begin metrics;
  while (!in_flight > 0 || !active_count > 0) && !round < max_rounds do
    (match hook with Some h -> h.round_begin ~round:!round | None -> ());
    if fobs then Flight.round_begin flight;
    (* plan pass: sequential, ascending over the worklist, so all hook
       calls ([alive], like everything else hook-related) happen on the
       engine domain in the same order the old full scan produced *)
    let eligible = ref 0 in
    sl := 0;
    dl := 0;
    for i = 0 to !wl - 1 do
      let v = work.(i) in
      queued.(v) <- false;
      if active.(v) || inboxes.(v) <> [] then begin
        let live =
          match hook with Some h -> h.alive ~round:!round v | None -> true
        in
        if live then begin
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
          if fobs then Flight.on_crash flight ~vertex:v
        end
      end
      else statuses.(v) <- -1
    done;
    (* step pass: consume inboxes, collect sends.  Each domain owns a
       static contiguous slice of the worklist and writes the sends of
       its vertices into their own [sent] mailbox cells; a task touches
       only vertex-owned cells ([states.(v)] by mutation, [statuses.(v)],
       [sent.(v)]), so the split is invisible.  [set_active] — the
       shared active count — is applied sequentially afterwards, in
       vertex order. *)
    let wl_now = !wl in
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
    for i = 0 to wl_now - 1 do
      let v = work.(i) in
      if statuses.(v) >= 0 then begin
        let b = statuses.(v) = 2 in
        if fobs && active.(v) <> b then
          Flight.on_active flight ~vertex:v ~active:b;
        set_active v b;
        if b then begin
          (* survivors enter the next worklist first, already ascending *)
          queued.(v) <- true;
          surv.(!sl) <- v;
          incr sl
        end
      end
    done;
    (* all considered inboxes are consumed (skipped vertices had empty
       ones, crash-stopped ones lose their deliveries); vertices outside
       the worklist hold nothing by construction *)
    for i = 0 to wl_now - 1 do
      inboxes.(work.(i)) <- []
    done;
    if cobs then
      for i = 0 to wl_now - 1 do
        inbox_ids.(work.(i)) <- []
      done;
    in_flight := 0;
    (* delivery pass: sequential over the worklist — already ascending —
       so the sender sequence is exactly that of the old full array
       scan, whatever the pool size *)
    for i = 0 to wl_now - 1 do
      let v = work.(i) in
      match sent.(v) with
      | [] -> ()
      | sends ->
        sent.(v) <- [];
        begin
          incr stamp;
          (* persisted eagerly so a run aborted by an engine exception
             cannot leave stale cells above the next run's stamps *)
          scratch.last <- !stamp;
          (* every message [v] sends this round was enabled by the same
             inbox, so its parent set is interned once *)
          let group =
            if cobs then Causal.group causal ~parents:parent_ids.(v) else 0
          in
          List.iter
            (fun { edge; payload } ->
              let words = Array.length payload in
              if words > cap_words then
                raise (Message_too_large { vertex = v; words });
              if used_stamp.(edge) = !stamp then
                raise (Duplicate_send { vertex = v; edge });
              used_stamp.(edge) <- !stamp;
              let dst = Graph.other_end g edge v in
              (* the sender spent its message budget whatever the network
                 then does with the copy: sends are counted before the
                 hook rules *)
              if observe then Metrics.on_send metrics ~edge;
              incr messages;
              let word = if words > 0 then payload.(0) else -1 in
              if fobs then Flight.on_send flight ~vertex:v ~edge ~word;
              let id =
                if cobs then Causal.on_send causal ~src:v ~dst ~edge ~group
                else -1
              in
              let deliver () =
                inboxes.(dst) <- (edge, payload) :: inboxes.(dst);
                if cobs then inbox_ids.(dst) <- id :: inbox_ids.(dst);
                if fobs then Flight.on_recv flight ~vertex:dst ~edge ~word;
                incr in_flight;
                enqueue_deliv dst
              in
              let fate =
                match hook with
                | Some h -> h.fate ~round:!round ~src:v ~edge
                | None -> Deliver
              in
              match fate with
              | Drop -> ()
              | Deliver -> deliver ()
              | Replicate copies ->
                for _ = 1 to max 1 copies do
                  deliver ()
                done
              | Postpone extra when extra <= 0 -> deliver ()
              | Postpone extra ->
                delayed :=
                  (!round + 1 + extra, dst, edge, payload, id) :: !delayed)
            sends
        end
    done;
    if !delayed <> [] then begin
      let due, future =
        List.partition (fun (r, _, _, _, _) -> r <= !round + 1) !delayed
      in
      List.iter
        (fun (_, dst, edge, payload, id) ->
          inboxes.(dst) <- (edge, payload) :: inboxes.(dst);
          if cobs then inbox_ids.(dst) <- id :: inbox_ids.(dst);
          if fobs then
            Flight.on_recv flight ~vertex:dst ~edge
              ~word:(if Array.length payload > 0 then payload.(0) else -1);
          incr in_flight;
          enqueue_deliv dst)
        due;
      delayed := future;
      (* a postponed message is still in flight: it must keep the engine
         from declaring quiescence until it lands *)
      in_flight := !in_flight + List.length future
    end;
    (* rebuild the worklist: survivors are already ascending; sort the
       delivered segment and merge.  The two are disjoint ([queued]
       dedups at insertion), so the merge is a plain two-pointer pass.
       When the pass was dense — pipeline-style programs deliver to
       nearly every vertex every pass — tracking has already been
       abandoned; the worklist reverts to the identity by blit and the
       next plan pass filters, exactly the old full-scan engine. *)
    if !dense then begin
      dense := false;
      Array.blit identity 0 work 0 n;
      wl := n
    end
    else begin
      sort_range deliv !dl;
      let i = ref (!sl - 1) and j = ref (!dl - 1) in
      let k = ref (!sl + !dl - 1) in
      (* merge back to front so [work] can double as the target without
         clobbering unread [surv]/[deliv] cells — both are separate
         arrays, but back-to-front also keeps the loop branch-light *)
      while !i >= 0 && !j >= 0 do
        if surv.(!i) > deliv.(!j) then begin
          work.(!k) <- surv.(!i);
          decr i
        end
        else begin
          work.(!k) <- deliv.(!j);
          decr j
        end;
        decr k
      done;
      while !i >= 0 do
        work.(!k) <- surv.(!i);
        decr i;
        decr k
      done;
      while !j >= 0 do
        work.(!k) <- deliv.(!j);
        decr j;
        decr k
      done;
      wl := !sl + !dl
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
      if observe then
        Metrics.on_round metrics ~messages:!in_flight ~active:!active_count;
      if cobs then Causal.on_round causal
    end
  done;
  if !in_flight > 0 || !active_count > 0 then begin
    if observe then Metrics.run_end metrics ~quiesced:false ~rounds:!counted;
    raise
      (Did_not_quiesce
         { rounds = !round; active = !active_count; in_flight = !in_flight })
  end;
  if observe then Metrics.run_end metrics ~quiesced:true ~rounds:!counted;
  (states, !counted, !messages)

let run ?max_rounds ?pool g p =
  let states, rounds, _ = run_counted ?max_rounds ?pool g p in
  (states, rounds)
