open Kecss_graph
open Kecss_obs
open Kecss_congest

type stats = {
  dropped : int;
  delayed : int;
  duplicated : int;
  crashed : int;
  cut : int;
  restored : int;
}

let no_faults =
  {
    dropped = 0;
    delayed = 0;
    duplicated = 0;
    crashed = 0;
    cut = 0;
    restored = 0;
  }

let total s =
  s.dropped + s.delayed + s.duplicated + s.crashed + s.cut + s.restored

let pp_stats ppf s =
  Format.fprintf ppf
    "@[<h>%d injected (%d dropped, %d delayed, %d duplicated, %d crashed, %d \
     cut, %d restored)@]"
    (total s) s.dropped s.delayed s.duplicated s.crashed s.cut s.restored

type injector = {
  plan : Plan.t;
  rng : Rng.t;
  trace : Trace.t;
  mutable passes : int; (* global engine passes; current round = passes - 1 *)
  mutable dropped : int;
  mutable delayed : int;
  mutable duplicated : int;
  mutable cut_count : int;
  mutable restored_count : int;
  (* [Plan.schedule]; activation is per entry, not per id, so a
     cut -> ins -> cut sequence on the same edge fires each step once *)
  schedule : (int * Plan.event) array;
  mutable next_sched : int; (* activated prefix of [schedule] *)
  crashed : (int, unit) Hashtbl.t; (* activated crash-stops *)
  severed : (int, unit) Hashtbl.t; (* currently severed edges *)
}

let injector ?(trace = Trace.noop) plan =
  {
    plan;
    rng = Rng.create ~seed:plan.Plan.seed;
    trace;
    passes = 0;
    dropped = 0;
    delayed = 0;
    duplicated = 0;
    cut_count = 0;
    restored_count = 0;
    schedule = Array.of_list (Plan.schedule plan);
    next_sched = 0;
    crashed = Hashtbl.create 4;
    severed = Hashtbl.create 4;
  }

let stats t =
  {
    dropped = t.dropped;
    delayed = t.delayed;
    duplicated = t.duplicated;
    crashed = Hashtbl.length t.crashed;
    cut = t.cut_count;
    restored = t.restored_count;
  }

let rounds_seen t = t.passes

let now t = t.passes - 1

let emit t ~kind ?(vertex = -1) ?(edge = -1) ?(amount = 0) () =
  Events.fault_injected t.trace ~kind ~round:(now t) ~vertex ~edge ~amount

(* activate due scheduled faults exactly once per schedule entry, in
   [Plan.schedule]'s order, and return the vertices crash-stopped now;
   redundant entries (crashing a crashed vertex, cutting a severed edge,
   restoring a live one) are silent no-ops that neither count nor emit *)
let round_begin t =
  t.passes <- t.passes + 1;
  let g = now t in
  let n = Array.length t.schedule in
  let crashed = ref [] in
  while t.next_sched < n && fst t.schedule.(t.next_sched) <= g do
    (match snd t.schedule.(t.next_sched) with
    | Plan.Crash vertex ->
      if not (Hashtbl.mem t.crashed vertex) then begin
        Hashtbl.replace t.crashed vertex ();
        emit t ~kind:"crash" ~vertex ();
        crashed := vertex :: !crashed
      end
    | Plan.Cut edge ->
      if not (Hashtbl.mem t.severed edge) then begin
        Hashtbl.replace t.severed edge ();
        t.cut_count <- t.cut_count + 1;
        emit t ~kind:"edge-cut" ~edge ()
      end
    | Plan.Insert edge ->
      if Hashtbl.mem t.severed edge then begin
        Hashtbl.remove t.severed edge;
        t.restored_count <- t.restored_count + 1;
        emit t ~kind:"edge-restore" ~edge ()
      end);
    t.next_sched <- t.next_sched + 1
  done;
  !crashed

let alive t v = not (Hashtbl.mem t.crashed v)

(* a severed edge draws nothing from the stream *)
let fate t ~edge =
  if
    Hashtbl.mem t.severed edge
    || (t.plan.Plan.drop > 0.0 && Rng.bernoulli t.rng t.plan.Plan.drop)
  then begin
    t.dropped <- t.dropped + 1;
    emit t ~kind:"drop" ~edge ();
    Network.Drop
  end
  else if
    t.plan.Plan.duplicate > 0.0 && Rng.bernoulli t.rng t.plan.Plan.duplicate
  then begin
    t.duplicated <- t.duplicated + 1;
    emit t ~kind:"duplicate" ~edge ~amount:2 ();
    Network.Duplicate
  end
  else if t.plan.Plan.delay_p > 0.0 && Rng.bernoulli t.rng t.plan.Plan.delay_p
  then begin
    let extra = 1 + Rng.int t.rng t.plan.Plan.delay_max in
    t.delayed <- t.delayed + 1;
    emit t ~kind:"delay" ~edge ~amount:extra ();
    Network.Postpone extra
  end
  else Network.Deliver

let hook t =
  {
    Network.round_begin = (fun () -> round_begin t);
    alive = alive t;
    fate = fate t;
  }

type 's outcome =
  | Quiesced of {
      states : 's array;
      rounds : int;
      messages : int;
      faults : stats;
    }
  | Stalled of { rounds : int; active : int; in_flight : int; faults : stats }

let run_counted ?(probe = Probe.noop) ?max_rounds ~plan g p =
  let inj = injector ~trace:(Probe.trace probe) plan in
  match Network.run_counted ~probe ~hook:(hook inj) ?max_rounds g p with
  | states, rounds, messages ->
    Quiesced { states; rounds; messages; faults = stats inj }
  | exception Network.Did_not_quiesce { rounds; active; in_flight } ->
    Stalled { rounds; active; in_flight; faults = stats inj }
