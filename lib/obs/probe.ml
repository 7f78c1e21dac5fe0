type recording = {
  trace : Trace.t;
  metrics : Metrics.t;
  prof : Prof.t;
  causal : Causal.t;
  flight : Flight.t;
}

type t = Noop | Recording of recording

let noop = Noop

let create ?(trace = Trace.noop) ?(metrics = Metrics.noop) ?(prof = Prof.noop)
    ?(causal = Causal.noop) ?(flight = Flight.noop) () =
  if
    Trace.enabled trace || Metrics.enabled metrics || Prof.enabled prof
    || Causal.enabled causal || Flight.enabled flight
  then Recording { trace; metrics; prof; causal; flight }
  else Noop

let enabled = function Noop -> false | Recording _ -> true
let trace = function Noop -> Trace.noop | Recording r -> r.trace
let metrics = function Noop -> Metrics.noop | Recording r -> r.metrics
let prof = function Noop -> Prof.noop | Recording r -> r.prof
let causal = function Noop -> Causal.noop | Recording r -> r.causal
let flight = function Noop -> Flight.noop | Recording r -> r.flight

(* ---------- phases ---------- *)

type scope = Ledger of string list | Run of string

let phase t scope f =
  match (t, scope) with
  | Noop, _ -> f ()
  | Recording r, Run name ->
    Causal.phase_begin r.causal name;
    Fun.protect ~finally:(fun () -> Causal.phase_end r.causal) f
  | Recording r, Ledger path ->
    let name = List.hd path in
    Trace.begin_span r.trace name;
    Causal.phase_begin r.causal name;
    Fun.protect
      ~finally:(fun () ->
        Causal.phase_end r.causal;
        Trace.end_span r.trace)
      (fun () ->
        if Prof.enabled r.prof then
          Prof.span r.prof (String.concat "/" (List.rev path)) f
        else f ())

(* ---------- fork and join ---------- *)

let fork = function
  | Noop -> Noop
  | Recording r ->
    let trace = if Trace.enabled r.trace then Trace.create () else Trace.noop in
    create ~trace ~metrics:(Metrics.fork r.metrics ~trace) ~prof:r.prof
      ~causal:(if Causal.enabled r.causal then Causal.create () else Causal.noop)
      ()

let join parent child =
  match (parent, child) with
  | Recording p, Recording c ->
    Trace.join p.trace c.trace;
    Metrics.join p.metrics c.metrics;
    Causal.join p.causal c.causal
  | _ -> ()

(* ---------- engine hooks ---------- *)

let run_begin t ~n =
  match t with
  | Noop -> ()
  | Recording r ->
    Causal.run_begin r.causal;
    Flight.ensure r.flight n;
    Metrics.run_begin r.metrics

let round_begin t =
  match t with Noop -> () | Recording r -> Flight.round_begin r.flight

let causal_ids t = Causal.enabled (causal t)

let group t ~parents =
  match t with Noop -> 0 | Recording r -> Causal.group r.causal ~parents

let on_send t ~src ~dst ~edge ~word ~group =
  match t with
  | Noop -> -1
  | Recording r ->
    Metrics.on_send r.metrics ~edge;
    Flight.on_send r.flight ~vertex:src ~edge ~word;
    Causal.on_send r.causal ~src ~dst ~edge ~group

let on_recv t ~vertex ~edge ~word =
  match t with
  | Noop -> ()
  | Recording r -> Flight.on_recv r.flight ~vertex ~edge ~word

let on_active t ~vertex ~active =
  match t with
  | Noop -> ()
  | Recording r -> Flight.on_active r.flight ~vertex ~active

let on_crash t ~vertex =
  match t with Noop -> () | Recording r -> Flight.on_crash r.flight ~vertex

let on_round t ~messages ~active =
  match t with
  | Noop -> ()
  | Recording r ->
    Metrics.on_round r.metrics ~messages ~active;
    Causal.on_round r.causal

let run_end t ~quiesced ~rounds =
  match t with
  | Noop -> ()
  | Recording r -> Metrics.run_end r.metrics ~quiesced ~rounds
