type recording = {
  trace : Trace.t;
  mutable msgs : int array; (* per counted round, append-only *)
  mutable act : int array;
  mutable len : int;
  mutable edge_counts : int array;
  mutable edge_hi : int; (* highest edge id seen + 1 *)
  mutable total_messages : int;
  mutable runs : int;
  mutable quiescence_rev : int list;
  mutable run_base : float; (* trace time at run_begin *)
  mutable run_round : int;
}

type t = Noop | Recording of recording

let noop = Noop

let fresh trace =
  {
    trace;
    msgs = Array.make 64 0;
    act = Array.make 64 0;
    len = 0;
    edge_counts = Array.make 64 0;
    edge_hi = 0;
    total_messages = 0;
    runs = 0;
    quiescence_rev = [];
    run_base = 0.0;
    run_round = 0;
  }

let create ?(trace = Trace.noop) () = Recording (fresh trace)

let enabled = function Noop -> false | Recording _ -> true

let grow a needed =
  if needed <= Array.length a then a
  else begin
    let b = Array.make (max needed (2 * Array.length a)) 0 in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let run_begin t =
  match t with
  | Noop -> ()
  | Recording r ->
    r.runs <- r.runs + 1;
    r.run_base <- Trace.now r.trace;
    r.run_round <- 0

let on_send t ~edge =
  match t with
  | Noop -> ()
  | Recording r ->
    r.edge_counts <- grow r.edge_counts (edge + 1);
    r.edge_counts.(edge) <- r.edge_counts.(edge) + 1;
    if edge + 1 > r.edge_hi then r.edge_hi <- edge + 1

let on_round t ~messages ~active =
  match t with
  | Noop -> ()
  | Recording r ->
    r.msgs <- grow r.msgs (r.len + 1);
    r.act <- grow r.act (r.len + 1);
    r.msgs.(r.len) <- messages;
    r.act.(r.len) <- active;
    r.len <- r.len + 1;
    r.total_messages <- r.total_messages + messages;
    if Trace.enabled r.trace then begin
      let ts = r.run_base +. float_of_int r.run_round in
      Trace.sample r.trace ~ts "messages/round" (float_of_int messages);
      Trace.sample r.trace ~ts "active vertices" (float_of_int active)
    end;
    r.run_round <- r.run_round + 1

let run_end t ~quiesced ~rounds =
  match t with
  | Noop -> ()
  | Recording r ->
    if quiesced then r.quiescence_rev <- rounds :: r.quiescence_rev

(* a child records on its own trace iff the parent records on one *)
let fork t ~trace =
  match t with
  | Noop -> Noop
  | Recording r ->
    Recording (fresh (if Trace.enabled r.trace then trace else Trace.noop))

let join parent child =
  match (parent, child) with
  | Recording r, Recording c ->
    r.msgs <- grow r.msgs (r.len + c.len);
    r.act <- grow r.act (r.len + c.len);
    Array.blit c.msgs 0 r.msgs r.len c.len;
    Array.blit c.act 0 r.act r.len c.len;
    r.len <- r.len + c.len;
    r.total_messages <- r.total_messages + c.total_messages;
    r.runs <- r.runs + c.runs;
    if c.edge_hi > 0 then begin
      r.edge_counts <- grow r.edge_counts c.edge_hi;
      for e = 0 to c.edge_hi - 1 do
        r.edge_counts.(e) <- r.edge_counts.(e) + c.edge_counts.(e)
      done;
      if c.edge_hi > r.edge_hi then r.edge_hi <- c.edge_hi
    end;
    (* both lists are newest-first; the child is newer than everything
       joined so far *)
    r.quiescence_rev <- c.quiescence_rev @ r.quiescence_rev
  | _ -> ()

let rounds_observed = function Noop -> 0 | Recording r -> r.len

let messages_series = function
  | Noop -> [||]
  | Recording r -> Array.sub r.msgs 0 r.len

let active_series = function
  | Noop -> [||]
  | Recording r -> Array.sub r.act 0 r.len

let total_messages = function Noop -> 0 | Recording r -> r.total_messages

let peak over t =
  match t with
  | Noop -> 0
  | Recording r ->
    let a = over r in
    let best = ref 0 in
    for i = 0 to r.len - 1 do
      if a.(i) > !best then best := a.(i)
    done;
    !best

let peak_round_messages t = peak (fun r -> r.msgs) t
let peak_active t = peak (fun r -> r.act) t

let hottest_edge = function
  | Noop -> None
  | Recording r ->
    let best = ref (-1) in
    for e = 0 to r.edge_hi - 1 do
      if r.edge_counts.(e) > 0
         && (!best < 0 || r.edge_counts.(e) > r.edge_counts.(!best))
      then best := e
    done;
    if !best < 0 then None else Some (!best, r.edge_counts.(!best))

let runs = function Noop -> 0 | Recording r -> r.runs

let quiescence_rounds = function
  | Noop -> []
  | Recording r -> List.rev r.quiescence_rev

type summary = {
  rounds : int;
  messages : int;
  peak_round_messages : int;
  mean_round_messages : float;
  peak_active : int;
  mean_active : float;
  hottest_edge : int;
  hottest_edge_messages : int;
  runs : int;
}

let summary t =
  let rounds = rounds_observed t in
  let messages = total_messages t in
  let mean over =
    if rounds = 0 then 0.0
    else
      float_of_int (Array.fold_left ( + ) 0 (over t)) /. float_of_int rounds
  in
  let he, hm = match hottest_edge t with Some (e, m) -> (e, m) | None -> (-1, 0) in
  {
    rounds;
    messages;
    peak_round_messages = peak_round_messages t;
    mean_round_messages = mean messages_series;
    peak_active = peak_active t;
    mean_active = mean active_series;
    hottest_edge = he;
    hottest_edge_messages = hm;
    runs = runs t;
  }

let summary_to_json s =
  Json.Obj
    [
      ("rounds", Json.Int s.rounds);
      ("messages", Json.Int s.messages);
      ("peak_round_messages", Json.Int s.peak_round_messages);
      ("mean_round_messages", Json.Float s.mean_round_messages);
      ("peak_active", Json.Int s.peak_active);
      ("mean_active", Json.Float s.mean_active);
      ("hottest_edge", Json.Int s.hottest_edge);
      ("hottest_edge_messages", Json.Int s.hottest_edge_messages);
      ("runs", Json.Int s.runs);
    ]

let to_json t =
  let series a = Json.List (Array.to_list (Array.map (fun x -> Json.Int x) a)) in
  Json.Obj
    [
      ("summary", summary_to_json (summary t));
      ("messages_per_round", series (messages_series t));
      ("active_per_round", series (active_series t));
      ( "quiescence_rounds",
        Json.List (List.map (fun r -> Json.Int r) (quiescence_rounds t)) );
    ]
