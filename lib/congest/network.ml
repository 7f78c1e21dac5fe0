open Kecss_graph
module Probe = Kecss_obs.Probe
module Prof = Kecss_obs.Prof

exception Message_too_large of { vertex : int; words : int }
exception Duplicate_send of { vertex : int; edge : int }

exception
  Did_not_quiesce of { rounds : int; active : int; in_flight : int }

let cap_words = 6

(* Scratch for duplicate-send detection, persistent across runs in
   domain-local storage: an edge is a duplicate iff its cell carries the
   current sender's stamp. The stamp counter strictly increases across
   runs (a nested run advances it too, since every sender reads and
   bumps [last] itself), so stale cells from earlier runs (or the zeroed
   cells of a grown buffer) can never match, and a run costs no O(m)
   allocation. *)
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

(* ---------- the message plane ---------- *)

(* One pass's messages as a struct of arrays: slot [s] is a message on
   edge [edge.{s}] from [src.{s}] whose [len.{s}] payload words sit at
   [words.{off.{s}}]. A delivery threads its slot onto the receiver's
   chain through [next] (and records its causal id in [id]). Slots and
   words only ever grow, so after a few runs a domain's arenas hold the
   largest pass it has seen and a pass allocates nothing.

   The arrays are bigarrays, outside the OCaml heap: the collector never
   scans them, and an arena that stays live across runs does not slow
   the major GC's cycles for the garbage the rest of a solve makes. *)
type ints = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let ints n : ints = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n

(* [x]'s first [keep] cells in a new array of [cap] cells *)
let extend (x : ints) ~keep cap =
  let y = ints cap in
  Bigarray.Array1.blit (Bigarray.Array1.sub x 0 keep) (Bigarray.Array1.sub y 0 keep);
  y

type arena = {
  mutable slots : int;
  mutable edge : ints;
  mutable src : ints;
  mutable off : ints;
  mutable len : ints;
  mutable next : ints;
  mutable id : ints;
  mutable used : int;
  mutable words : ints;
}

let arena () =
  {
    slots = 0;
    edge = ints 0;
    src = ints 0;
    off = ints 0;
    len = ints 0;
    next = ints 0;
    id = ints 0;
    used = 0;
    words = ints 0;
  }

let grow_slots a =
  let cap = max 256 (2 * Bigarray.Array1.dim a.edge) in
  let ext x = extend x ~keep:a.slots cap in
  a.edge <- ext a.edge;
  a.src <- ext a.src;
  a.off <- ext a.off;
  a.len <- ext a.len;
  a.next <- ext a.next;
  a.id <- ext a.id

let[@inline] get (a : ints) i = Bigarray.Array1.unsafe_get a i
let[@inline] set (a : ints) i x = Bigarray.Array1.unsafe_set a i x

(* a new slot for a [len]-word message; returns the offset its payload
   words go to, which has room for them. An oversized payload is refused
   at delivery, before anything reads it, so its words are never stored.
   The engine's own accesses below a checked capacity are unchecked. *)
let[@inline] reserve a ~src ~edge ~len =
  if a.slots = Bigarray.Array1.dim a.edge then grow_slots a;
  let s = a.slots in
  a.slots <- s + 1;
  set a.edge s edge;
  set a.src s src;
  set a.len s len;
  let o = a.used in
  set a.off s o;
  if len <= cap_words then begin
    if o + len > Bigarray.Array1.dim a.words then
      a.words <- extend a.words ~keep:o (max 1024 (2 * (o + len)));
    a.used <- o + len
  end;
  o

(* The run's view of the plane: the arena being read (mail delivered
   last pass) and the one being written (this pass's sends), the
   stepping vertex and the first message of its chain. A program's step
   gets it twice, as its [mail] and as its [outbox]. *)
type io = {
  mutable inbox : arena;
  mutable outbox : arena;
  mutable v : int;
  mutable head : int;
}

type mail = io
type outbox = io

module Mail = struct
  (* A handle below the inbox arena's slot count names a slot its pass
     wrote, so every field read past this check holds what the engine
     stored there and is read unchecked. *)
  let arena m s =
    let a = m.inbox in
    if s < 0 || s >= a.slots then invalid_arg "Network.Mail: not a message";
    a

  let first m = m.head
  let next m s = get (arena m s).next s
  let edge m s = get (arena m s).edge s
  let length m s = get (arena m s).len s

  let word m s i =
    let a = arena m s in
    if i < 0 || i >= get a.len s then invalid_arg "Network.Mail.word";
    get a.words (get a.off s + i)

  let is_empty m = m.head < 0

  let count m =
    let k = ref 0 and s = ref m.head in
    while !s >= 0 do
      incr k;
      s := get m.inbox.next !s
    done;
    !k

  (* words [o .. o + l - 1]; one- and two-word copies are built inline,
     without the C call of [Array.make]: most messages are that short *)
  let copy a o l =
    match l with
    | 0 -> [||]
    | 1 -> [| get a.words o |]
    | 2 -> [| get a.words o; get a.words (o + 1) |]
    | l ->
      let p = Array.make l 0 in
      for i = 0 to l - 1 do
        Array.unsafe_set p i (get a.words (o + i))
      done;
      p

  let sub m s ~pos =
    let a = arena m s in
    let l = get a.len s - pos in
    if pos < 0 || l < 0 then invalid_arg "Network.Mail.sub";
    copy a (get a.off s + pos) l

  let payload m s = sub m s ~pos:0

  (* Not tail-recursive: an inbox holds at most a few messages per
     incident edge, and building each cell after the recursive call
     spares the write barrier a tail-modulo-cons list would pay. *)
  let rec chain a s =
    if s < 0 then []
    else
      let rest = chain a (get a.next s) in
      (get a.edge s, copy a (get a.off s) (get a.len s)) :: rest

  let to_inbox m = chain m.inbox m.head
end

let post_sub o ~edge src ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Array.length src then
    invalid_arg "Network.post_sub";
  let a = o.outbox in
  let at = reserve a ~src:o.v ~edge ~len in
  if len <= cap_words then
    for i = 0 to len - 1 do
      set a.words (at + i) (Array.unsafe_get src (pos + i))
    done

let post o ~edge payload =
  post_sub o ~edge payload ~pos:0 ~len:(Array.length payload)

let post1 o ~edge w =
  let a = o.outbox in
  let at = reserve a ~src:o.v ~edge ~len:1 in
  set a.words at w

let forward o ~edge m s =
  let a = o.outbox and b = Mail.arena m s in
  let len = get b.len s in
  let at = reserve a ~src:o.v ~edge ~len in
  let from = get b.off s in
  for i = 0 to len - 1 do
    set a.words (at + i) (get b.words (from + i))
  done

(* Each domain keeps one pair of arenas across runs. A run that starts
   while another holds the pair (a step that runs the engine) gets a
   fresh pair, so the two never share slots. *)
type plane = { mutable a : arena; mutable b : arena; mutable busy : bool }

let plane_key =
  Domain.DLS.new_key (fun () -> { a = arena (); b = arena (); busy = false })

(* six slot arrays and the payload words *)
let capacity a = (6 * Bigarray.Array1.dim a.edge) + Bigarray.Array1.dim a.words

let arena_words () =
  let plane = Domain.DLS.get plane_key in
  capacity plane.a + capacity plane.b

(* a run in progress keeps the pair it started with *)
let release_arenas () =
  let plane = Domain.DLS.get plane_key in
  plane.a <- arena ();
  plane.b <- arena ()

type 's program = {
  init : int -> 's;
  step : round:int -> int -> 's -> mail -> outbox -> [ `Active | `Idle ];
}

let run_on ~probe ?hook ?max_rounds g p inbox outbox =
  let n = Graph.n g in
  let max_rounds =
    match max_rounds with Some r -> r | None -> (16 * n) + 10_000
  in
  let states = Array.init n p.init in
  let io = { inbox; outbox; v = -1; head = -1 } in
  (* no handle names a message before the first delivery, not even a
     slot an earlier run left in this arena *)
  inbox.slots <- 0;
  (* [heads.(v)]: the slot of the latest message delivered to [v], in
     [io.inbox]; the chain runs from it through [next], most recent
     delivery first *)
  let heads = Array.make n (-1) in
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
  let in_flight = ref 0 in
  let round = ref 0 in
  let counted = ref 0 in
  let messages = ref 0 in
  (* deliveries whose injected delay has not yet elapsed, with their
     payloads copied out of the plane:
     (due pass, destination, edge, payload, causal id) *)
  let delayed = ref [] in
  let obs = Probe.enabled probe in
  let prof = Probe.prof probe in
  let timed = Prof.enabled prof in
  (* the causal ids of the messages each vertex stepped on, when the
     causal recorder records *)
  let cobs = Probe.causal_ids probe in
  let parent_ids : int list array = if cobs then Array.make n [] else [||] in
  let[@tail_mod_cons] rec chain_ids a s =
    if s < 0 then [] else a.id.{s} :: chain_ids a a.next.{s}
  in
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
  let first_word a s =
    if get a.len s > 0 then get a.words (get a.off s) else -1
  in
  (* the one delivery path: normal, replicated and delayed copies alike
     join the receiver's chain in [io.outbox] *)
  let deliver dst s id =
    let a = io.outbox in
    set a.next s heads.(dst);
    heads.(dst) <- s;
    if cobs then set a.id s id;
    if obs then
      Probe.on_recv probe ~vertex:dst ~edge:(get a.edge s) ~word:(first_word a s);
    incr in_flight;
    Bitset.add frontier dst
  in
  (* a further copy of slot [s] for [Replicate]: same payload words *)
  let copy a s =
    if a.slots = Bigarray.Array1.dim a.edge then grow_slots a;
    let c = a.slots in
    a.slots <- c + 1;
    set a.edge c (get a.edge s);
    set a.src c (get a.src s);
    set a.off c (get a.off s);
    set a.len c (get a.len s);
    c
  in
  (* step pass, ascending over [work]: gate each vertex on the hook,
     step it, and settle whether it still wants rounds.  Its sends land
     in [io.outbox] for the delivery pass, so no vertex sees mail sent
     in the pass it steps in.  Every chain in [work] is consumed
     (crash-stopped vertices lose their deliveries); vertices outside it
     hold nothing. *)
  let step_pass () =
    wl := 0;
    Bitset.iter push frontier;
    Bitset.clear frontier;
    io.outbox.slots <- 0;
    io.outbox.used <- 0;
    for i = 0 to !wl - 1 do
      let v = work.(i) in
      let b =
        if match hook with Some h -> h.alive ~round:!round v | None -> true
        then begin
          (* the messages delivered to [v] last pass are the parents of
             everything it sends this pass *)
          if cobs then parent_ids.(v) <- chain_ids io.inbox heads.(v);
          io.v <- v;
          io.head <- heads.(v);
          p.step ~round:!round v states.(v) io io = `Active
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
      heads.(v) <- -1
    done
  in
  (* delivery pass: the slots in send order, i.e. ascending sender and
     each sender's sends in the order it posted them *)
  let deliver_pass () =
    in_flight := 0;
    let a = io.outbox in
    let sent = a.slots in
    (* slots below [sent] keep their sender, edge and length even if a
       replica grows the arena's arrays *)
    let srcs = a.src and edges = a.edge and lens = a.len in
    let sender = ref (-1) and stamp = ref 0 and group = ref 0 in
    for s = 0 to sent - 1 do
      let v = get srcs s in
      if v <> !sender then begin
        sender := v;
        (* persisted at once so a run aborted by an engine exception
           cannot leave stale cells above the next run's stamps *)
        stamp := scratch.last + 1;
        scratch.last <- !stamp;
        (* every message [v] sends this round was enabled by the same
           inbox, so its parent set is interned once *)
        if cobs then group := Probe.group probe ~parents:parent_ids.(v)
      end;
      let edge = get edges s and words = get lens s in
      if words > cap_words then
        raise (Message_too_large { vertex = v; words });
      if used_stamp.(edge) = !stamp then
        raise (Duplicate_send { vertex = v; edge });
      used_stamp.(edge) <- !stamp;
      let dst = Graph.other_end g edge v in
      let id =
        if obs then
          Probe.on_send probe ~src:v ~dst ~edge ~word:(first_word a s)
            ~group:!group
        else -1
      in
      match hook with
      | None -> deliver dst s id
      | Some h -> (
        match h.fate ~round:!round ~src:v ~edge with
        | Drop -> ()
        | Deliver -> deliver dst s id
        | Replicate copies ->
          deliver dst s id;
          for _ = 2 to copies do
            deliver dst (copy a s) id
          done
        | Postpone extra when extra <= 0 -> deliver dst s id
        | Postpone extra ->
          let o = a.off.{s} in
          let payload = Array.init words (fun i -> a.words.{o + i}) in
          delayed := (!round + 1 + extra, dst, edge, payload, id) :: !delayed)
    done;
    (* the senders spent their message budget whatever the network then
       did with the copies: every send counts, before the hook rules *)
    messages := !messages + sent;
    if !delayed <> [] then begin
      let due, future =
        List.partition (fun (r, _, _, _, _) -> r <= !round + 1) !delayed
      in
      List.iter
        (fun (_, dst, edge, payload, id) ->
          let len = Array.length payload in
          let at = reserve a ~src:(-1) ~edge ~len in
          Array.iteri (fun i w -> a.words.{at + i} <- w) payload;
          deliver dst (a.slots - 1) id)
        due;
      delayed := future;
      (* a postponed message is still in flight: it must keep the engine
         from declaring quiescence until it lands *)
      in_flight := !in_flight + List.length future
    end;
    (* this pass's deliveries are the next pass's mail *)
    io.outbox <- io.inbox;
    io.inbox <- a
  in
  if obs then Probe.run_begin probe ~n;
  while (!in_flight > 0 || !active_count > 0) && !round < max_rounds do
    (match hook with Some h -> h.round_begin ~round:!round | None -> ());
    if obs then Probe.round_begin probe;
    if timed then Prof.time prof "engine/step" step_pass else step_pass ();
    if timed then Prof.time prof "engine/deliver" deliver_pass
    else deliver_pass ();
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

let run_counted ?(probe = Probe.noop) ?hook ?max_rounds g p =
  let plane = Domain.DLS.get plane_key in
  if plane.busy then run_on ~probe ?hook ?max_rounds g p (arena ()) (arena ())
  else begin
    plane.busy <- true;
    Fun.protect
      ~finally:(fun () -> plane.busy <- false)
      (fun () -> run_on ~probe ?hook ?max_rounds g p plane.a plane.b)
  end

let run ?max_rounds g p =
  let states, rounds, _ = run_counted ?max_rounds g p in
  (states, rounds)
