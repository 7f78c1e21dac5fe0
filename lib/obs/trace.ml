type value = Int of int | Float of float | Str of string | Bool of bool

type kind =
  | Span_begin
  | Span_end
  | Instant
  | Counter

type event = {
  kind : kind;
  name : string;
  ts : float;
  args : (string * value) list;
}

type recording = {
  mutable clock : float;
  mutable stack : string list; (* innermost first *)
  mutable events_rev : event list;
  mutable n_events : int;
  counters : (string, int) Hashtbl.t;
  mutable subscribers : (event -> unit) list; (* in subscription order *)
  mutable dispatching : bool; (* re-entrancy guard for subscribers *)
}

type t = Noop | Recording of recording

let noop = Noop

let create () =
  Recording
    {
      clock = 0.0;
      stack = [];
      events_rev = [];
      n_events = 0;
      counters = Hashtbl.create 16;
      subscribers = [];
      dispatching = false;
    }

let subscribe t f =
  match t with
  | Noop -> ()
  | Recording r -> r.subscribers <- r.subscribers @ [ f ]

let enabled = function Noop -> false | Recording _ -> true

let now = function Noop -> 0.0 | Recording r -> r.clock

let advance t dt =
  match t with Noop -> () | Recording r -> r.clock <- r.clock +. dt

let emit r kind name ts args =
  if r.dispatching then
    invalid_arg
      "Trace.subscribe: a subscriber must not emit into the trace it \
       observes";
  let e = { kind; name; ts; args } in
  r.events_rev <- e :: r.events_rev;
  r.n_events <- r.n_events + 1;
  match r.subscribers with
  | [] -> ()
  | subs ->
    r.dispatching <- true;
    Fun.protect
      ~finally:(fun () -> r.dispatching <- false)
      (fun () -> List.iter (fun f -> f e) subs)

let push_span r name ts args =
  r.stack <- name :: r.stack;
  emit r Span_begin name ts args

let pop_span r ts =
  match r.stack with
  | [] -> ()
  | name :: rest ->
    r.stack <- rest;
    emit r Span_end name ts []

let add_count r name n ts =
  let total = n + Option.value ~default:0 (Hashtbl.find_opt r.counters name) in
  Hashtbl.replace r.counters name total;
  emit r Counter name ts [ (name, Int total) ]

let begin_span t ?(args = []) name =
  match t with Noop -> () | Recording r -> push_span r name r.clock args

let end_span t = match t with Noop -> () | Recording r -> pop_span r r.clock

let span t ?args name f =
  match t with
  | Noop -> f ()
  | Recording _ ->
    begin_span t ?args name;
    Fun.protect ~finally:(fun () -> end_span t) f

let instant t ?(args = []) name =
  match t with Noop -> () | Recording r -> emit r Instant name r.clock args

let count t name n =
  match t with Noop -> () | Recording r -> add_count r name n r.clock

let sample t ?ts name v =
  match t with
  | Noop -> ()
  | Recording r ->
    let ts = Option.value ~default:r.clock ts in
    emit r Counter name ts [ (name, Float v) ]

let counter_total t name =
  match t with
  | Noop -> 0
  | Recording r -> Option.value ~default:0 (Hashtbl.find_opt r.counters name)

let depth = function Noop -> 0 | Recording r -> List.length r.stack
let events = function Noop -> [] | Recording r -> List.rev r.events_rev
let event_count = function Noop -> 0 | Recording r -> r.n_events

(* Replays the child's stream as if it had been recorded here: timestamps
   shift by the clock at the join, and each [count] event — the only
   counter events with an [Int] value — becomes the delta it added in the
   child, folded into this trace's cumulative total. *)
let join parent child =
  match (parent, child) with
  | Recording p, Recording c ->
    let offset = p.clock in
    let seen = Hashtbl.create 8 in
    List.iter
      (fun e ->
        let ts = e.ts +. offset in
        match (e.kind, e.args) with
        | Span_begin, _ -> push_span p e.name ts e.args
        | Span_end, _ -> pop_span p ts
        | Counter, [ (name, Int total) ] ->
          let prev = Option.value ~default:0 (Hashtbl.find_opt seen name) in
          Hashtbl.replace seen name total;
          add_count p name (total - prev) ts
        | _ -> emit p e.kind e.name ts e.args)
      (List.rev c.events_rev);
    p.clock <- p.clock +. c.clock
  | _ -> ()
