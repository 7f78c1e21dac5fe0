open Kecss_graph
module Probe = Kecss_obs.Probe
module Prof = Kecss_obs.Prof

exception Message_too_large of { vertex : int; words : int }
exception Duplicate_send of { vertex : int; edge : int }

exception
  Did_not_quiesce of { rounds : int; active : int; in_flight : int }

let cap_words = 6

(* Every pass steps inline on the calling domain; no pass shards. *)
let par_threshold () = max_int

type send = { edge : int; payload : int array }

type fate = Deliver | Drop | Replicate of int | Postpone of int

type hook = {
  round_begin : round:int -> unit;
  alive : round:int -> int -> bool;
  fate : round:int -> src:int -> edge:int -> fate;
}

(* ---------- the message plane ---------- *)

(* One pass's messages as a struct of arrays: slot [s] is a message on
   edge [edge.{s}] from [src.{s}] to [dst.{s}] whose [len.{s}] payload
   words sit at [words.{off.{s}}]. A delivery threads its slot onto the
   receiver's chain through [next] (and records its causal id in
   [id]). Slots and words only ever grow, so after a few runs a domain's
   arenas hold the largest pass it has seen and a pass allocates
   nothing.

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
  mutable dst : ints;
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
    dst = ints 0;
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
  a.dst <- ext a.dst;
  a.off <- ext a.off;
  a.len <- ext a.len;
  a.next <- ext a.next;
  a.id <- ext a.id

let[@inline] get (a : ints) i = Bigarray.Array1.unsafe_get a i
let[@inline] set (a : ints) i x = Bigarray.Array1.unsafe_set a i x

(* a new slot for a [len]-word message, which the post has checked
   against [cap_words]; returns the offset its payload words go to,
   which has room for them. The engine's own accesses below a checked
   capacity are unchecked. *)
let[@inline] reserve a ~src ~edge ~dst ~len =
  if a.slots = Bigarray.Array1.dim a.edge then grow_slots a;
  let s = a.slots in
  a.slots <- s + 1;
  set a.edge s edge;
  set a.src s src;
  set a.dst s dst;
  set a.len s len;
  let o = a.used in
  set a.off s o;
  if o + len > Bigarray.Array1.dim a.words then
    a.words <- extend a.words ~keep:o (max 1024 (2 * (o + len)));
  a.used <- o + len;
  o

(* The run's view of the plane: the arena being read (mail delivered
   last pass) and the one being written (this pass's sends), the
   stepping vertex, the first message of its chain, and its adjacency
   row: [deg] ports from position [lo] of the graph's CSR arrays [nbr]
   and [eid]. [stamps] holds one cell per row position, and [stamp] is
   the stepping vertex's: a post on a cell that already carries it is
   the vertex's second post on that port. A program's step gets the
   record twice, as its [mail] and as its [outbox]. *)
type io = {
  nbr : int array;
  eid : int array;
  stamps : int array;
  mutable stamp : int;
  mutable inbox : arena;
  mutable outbox : arena;
  mutable v : int;
  mutable head : int;
  mutable lo : int;
  mutable deg : int;
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
end

(* A post fills its slot from the sender's own adjacency row, checked
   against its degree: the row gives the edge and the far end, so the
   destination is stored in the slot and the delivery pass never looks
   an edge up. The size and duplicate checks run here too, and the
   duplicate check reads and writes only the sender's row of
   [stamps]. *)

let bad_port o port =
  invalid_arg
    (Printf.sprintf "Network: port %d outside [0, %d) at vertex %d" port o.deg
       o.v)

let[@inline] port_slot o ~port ~len =
  if port < 0 || port >= o.deg then bad_port o port;
  if len > cap_words then
    raise (Message_too_large { vertex = o.v; words = len });
  let i = o.lo + port in
  if Array.unsafe_get o.stamps i = o.stamp then
    raise (Duplicate_send { vertex = o.v; edge = Array.unsafe_get o.eid i });
  Array.unsafe_set o.stamps i o.stamp;
  reserve o.outbox ~src:o.v ~edge:(Array.unsafe_get o.eid i)
    ~dst:(Array.unsafe_get o.nbr i) ~len

(* Each post takes its slot first, since reserving may grow the words
   array. *)
let[@inline] copy_in a ~at src ~pos ~len =
  for i = 0 to len - 1 do
    set a.words (at + i) (Array.unsafe_get src (pos + i))
  done

let post_sub_port o ~port src ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Array.length src then
    invalid_arg "Network.post_sub_port";
  let at = port_slot o ~port ~len in
  copy_in o.outbox ~at src ~pos ~len

let post_port o ~port payload =
  let len = Array.length payload in
  let at = port_slot o ~port ~len in
  copy_in o.outbox ~at payload ~pos:0 ~len

let post1_port o ~port w =
  let at = port_slot o ~port ~len:1 in
  set o.outbox.words at w

let forward_port o ~port m s =
  let at = port_slot o ~port ~len:(Mail.length m s) in
  let a = o.outbox and b = Mail.arena m s in
  let from = get b.off s in
  for i = 0 to get b.len s - 1 do
    set a.words (at + i) (get b.words (from + i))
  done

(* Each domain keeps one plane across runs: the pair of arenas and the
   run scratch, grown to the largest graph it has run. A run that starts
   while another holds the plane (a step that runs the engine) gets a
   fresh one, so the two never share slots, chain heads or stamps. *)
type plane = {
  mutable a : arena;
  mutable b : arena;
  mutable busy : bool;
  (* one cell per adjacency row position (2m): the stamp of the last
     post on it. [last] is the latest stamp handed out, one per stepped
     vertex; it only grows, so cells written by earlier runs (or the
     zeroed cells of a grown array) never match, and no run clears
     them. *)
  mutable stamps : int array;
  mutable last : int;
  (* [heads.(v)]: the slot of the latest message delivered to [v], in
     the inbox arena; the chain runs from it through [next], most recent
     delivery first. A run that quiesces leaves every cell at -1; one
     that raises leaves [dirty] set, and the next run clears them all. *)
  mutable heads : int array;
  mutable dirty : bool;
  (* '\001' for a vertex whose last step returned [`Active] or [`Wait] *)
  mutable active : Bytes.t;
  (* the frontier, [frontier_bits] vertices per word *)
  mutable frontier : int array;
}

let plane () =
  {
    a = arena ();
    b = arena ();
    busy = false;
    stamps = [||];
    last = 0;
    heads = [||];
    dirty = false;
    active = Bytes.empty;
    frontier = [||];
  }

let plane_key = Domain.DLS.new_key plane

(* 62 bits a word keeps every bit a positive power of two, and as 2 is a
   primitive root of the prime 67, [b mod 67] tells the 62 apart *)
let frontier_bits = 62

let bit_of =
  let t = Array.make 67 0 in
  for k = 0 to frontier_bits - 1 do
    t.((1 lsl k) mod 67) <- k
  done;
  t

(* sizes [pl]'s scratch for a run on [n] vertices and [rows] adjacency
   row positions *)
let prepare pl ~n ~rows =
  if Array.length pl.stamps < rows then pl.stamps <- Array.make rows 0;
  (* rollover guard: re-zero long before the counter could wrap (a run
     bumps it at most once per vertex per pass) *)
  if pl.last > max_int / 2 then begin
    Array.fill pl.stamps 0 (Array.length pl.stamps) 0;
    pl.last <- 0
  end;
  if Array.length pl.heads < n then pl.heads <- Array.make n (-1)
  else if pl.dirty then Array.fill pl.heads 0 (Array.length pl.heads) (-1);
  if Bytes.length pl.active < n then pl.active <- Bytes.create n;
  let words = (n + frontier_bits - 1) / frontier_bits in
  if Array.length pl.frontier < words then pl.frontier <- Array.make words 0

(* seven slot arrays and the payload words *)
let capacity a = (7 * Bigarray.Array1.dim a.edge) + Bigarray.Array1.dim a.words

let arena_words () =
  let plane = Domain.DLS.get plane_key in
  capacity plane.a + capacity plane.b

(* a run in progress keeps the plane it started with *)
let release_arenas () = Domain.DLS.set plane_key (plane ())

type 's program = {
  init : int -> 's;
  step : round:int -> int -> 's -> mail -> outbox -> [ `Active | `Wait | `Idle ];
}

let run_on ~probe ?hook ?max_rounds pl g p =
  let n = Graph.n g in
  let max_rounds =
    match max_rounds with Some r -> r | None -> (16 * n) + 10_000
  in
  let states = Array.init n p.init in
  let adj_off, nbr, eid = Graph.adjacency g in
  prepare pl ~n ~rows:(Array.length nbr);
  pl.dirty <- true;
  let heads = pl.heads and active = pl.active and fr = pl.frontier in
  let io =
    {
      nbr;
      eid;
      stamps = pl.stamps;
      stamp = 0;
      inbox = pl.a;
      outbox = pl.b;
      v = -1;
      head = -1;
      lo = 0;
      deg = 0;
    }
  in
  (* no handle names a message before the first delivery, not even a
     slot an earlier run left in this arena *)
  io.inbox.slots <- 0;
  Bytes.fill active 0 n '\001';
  (* [active_count] tracks the number of set flags in [active] so the
     quiescence test is O(1) instead of an O(n) scan per pass *)
  let active_count = ref n in
  let hooked = Option.is_some hook in
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
  (* The frontier: the vertices the next pass steps, i.e. those whose
     last step returned [`Active] (or [`Wait], under a hook) and those
     that hold delivered mail. Each pass walks its words in ascending
     order and clears them as it goes, so a pass costs O(n/62 +
     frontier), not O(n). Every vertex steps in round 0. *)
  let words = (n + frontier_bits - 1) / frontier_bits in
  Array.fill fr 0 words ((1 lsl frontier_bits) - 1);
  if n mod frontier_bits <> 0 then
    fr.(words - 1) <- (1 lsl (n mod frontier_bits)) - 1;
  let[@inline] enter v =
    let w = v / frontier_bits in
    Array.unsafe_set fr w
      (Array.unsafe_get fr w lor (1 lsl (v - (w * frontier_bits))))
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
    enter dst
  in
  (* a further copy of slot [s] for [Replicate]: same payload words *)
  let copy a s =
    if a.slots = Bigarray.Array1.dim a.edge then grow_slots a;
    let c = a.slots in
    a.slots <- c + 1;
    set a.edge c (get a.edge s);
    set a.src c (get a.src s);
    set a.dst c (get a.dst s);
    set a.off c (get a.off s);
    set a.len c (get a.len s);
    c
  in
  (* one vertex of the step pass: gate it on the hook, step it under a
     fresh stamp, and settle whether it still wants rounds. Its sends
     land in [io.outbox] for the delivery pass, so no vertex sees mail
     sent in the pass it steps in. Its chain is consumed either way
     (a crash-stopped vertex loses its deliveries). *)
  let step v =
    let r =
      if match hook with Some h -> h.alive ~round:!round v | None -> true
      then begin
        (* the messages delivered to [v] last pass are the parents of
           everything it sends this pass *)
        if cobs then parent_ids.(v) <- chain_ids io.inbox heads.(v);
        let stamp = pl.last + 1 in
        pl.last <- stamp;
        io.stamp <- stamp;
        io.v <- v;
        io.head <- heads.(v);
        io.lo <- adj_off.(v);
        io.deg <- adj_off.(v + 1) - io.lo;
        p.step ~round:!round v states.(v) io io
      end
      else begin
        (* crash-stop: the vertex neither steps nor sends, no longer
           wants rounds, and its delivered messages are lost *)
        if obs then Probe.on_crash probe ~vertex:v;
        `Idle
      end
    in
    heads.(v) <- -1;
    let b = match r with `Idle -> false | `Active | `Wait -> true in
    let was = Bytes.unsafe_get active v = '\001' in
    if was <> b then begin
      if obs then Probe.on_active probe ~vertex:v ~active:b;
      Bytes.unsafe_set active v (if b then '\001' else '\000');
      active_count := !active_count + if b then 1 else -1
    end;
    (* a waiting vertex steps again when mail arrives, or in every pass
       when a hook must rule on it *)
    match r with
    | `Active -> enter v
    | `Wait -> if hooked then enter v
    | `Idle -> ()
  in
  (* step pass: the frontier in ascending order; a word is cleared
     before its vertices step, so the ones that stay active land in the
     next pass's frontier *)
  let step_pass () =
    io.outbox.slots <- 0;
    io.outbox.used <- 0;
    for w = 0 to words - 1 do
      let bits = Array.unsafe_get fr w in
      if bits <> 0 then begin
        Array.unsafe_set fr w 0;
        let rest = ref bits in
        while !rest <> 0 do
          let b = !rest land - !rest in
          rest := !rest lxor b;
          step ((w * frontier_bits) + Array.unsafe_get bit_of (b mod 67))
        done
      end
    done
  in
  (* delivery pass: the slots in send order, i.e. ascending sender and
     each sender's sends in the order it posted them; every post was
     checked when it was made *)
  let deliver_pass () =
    in_flight := 0;
    let a = io.outbox in
    let sent = a.slots in
    (* slots below [sent] keep their sender, edge and destination even if
       a replica grows the arena's arrays *)
    let srcs = a.src and edges = a.edge and dsts = a.dst in
    let sender = ref (-1) and group = ref 0 in
    for s = 0 to sent - 1 do
      let dst = get dsts s in
      let id =
        if obs then begin
          let v = get srcs s in
          (* every message [v] sends this round was enabled by the same
             inbox, so its parent set is interned once *)
          if cobs && v <> !sender then begin
            sender := v;
            group := Probe.group probe ~parents:parent_ids.(v)
          end;
          Probe.on_send probe ~src:v ~dst ~edge:(get edges s)
            ~word:(first_word a s) ~group:!group
        end
        else -1
      in
      match hook with
      | None -> deliver dst s id
      | Some h -> (
        let edge = get edges s in
        match h.fate ~round:!round ~src:(get srcs s) ~edge with
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
          let payload = Array.init a.len.{s} (fun i -> a.words.{o + i}) in
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
          let at = reserve a ~src:(-1) ~edge ~dst ~len in
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
  (* nothing in flight: every chain has been consumed *)
  pl.dirty <- false;
  if obs then Probe.run_end probe ~quiesced:true ~rounds:!counted;
  (states, !counted, !messages)

let run_counted ?(probe = Probe.noop) ?hook ?max_rounds g p =
  let shared = Domain.DLS.get plane_key in
  if shared.busy then run_on ~probe ?hook ?max_rounds (plane ()) g p
  else begin
    shared.busy <- true;
    Fun.protect
      ~finally:(fun () -> shared.busy <- false)
      (fun () -> run_on ~probe ?hook ?max_rounds shared g p)
  end
