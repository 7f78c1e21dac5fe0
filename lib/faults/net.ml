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

(* one scheduled entry; activation is per entry, not per id, so a
   cut -> ins -> cut sequence on the same edge fires each step once *)
type sched = Crash of int | Cut of int | Restore of int

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
  schedule : (int * sched) array; (* sorted by round, cuts before restores *)
  mutable next_sched : int; (* activated prefix of [schedule] *)
  crashed : (int, unit) Hashtbl.t; (* activated crash-stops *)
  severed : (int, unit) Hashtbl.t; (* currently severed edges *)
}

let injector ?(trace = Trace.noop) plan =
  let entries =
    List.map (fun (v, r) -> (r, 0, Crash v)) plan.Plan.crashes
    @ List.map (fun (e, r) -> (r, 1, Cut e)) plan.Plan.cuts
    @ List.map (fun (e, r) -> (r, 2, Restore e)) plan.Plan.ins
  in
  (* stable by spec position within equal (round, tie) keys; at the same
     round cuts activate before restores, so cut+ins@r leaves the edge
     live *)
  let entries =
    List.stable_sort
      (fun (r1, t1, _) (r2, t2, _) -> compare (r1, t1) (r2, t2))
      entries
  in
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
    schedule = Array.of_list (List.map (fun (r, _, s) -> (r, s)) entries);
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
   (round, cut-before-restore, spec position) order; redundant entries
   (crashing a crashed vertex, cutting a severed edge, restoring a live
   one) are silent no-ops that neither count nor emit *)
let round_begin t ~round:_ =
  t.passes <- t.passes + 1;
  let g = now t in
  let n = Array.length t.schedule in
  while t.next_sched < n && fst t.schedule.(t.next_sched) <= g do
    (match snd t.schedule.(t.next_sched) with
    | Crash vertex ->
      if not (Hashtbl.mem t.crashed vertex) then begin
        Hashtbl.replace t.crashed vertex ();
        emit t ~kind:"crash" ~vertex ()
      end
    | Cut edge ->
      if not (Hashtbl.mem t.severed edge) then begin
        Hashtbl.replace t.severed edge ();
        t.cut_count <- t.cut_count + 1;
        emit t ~kind:"edge-cut" ~edge ()
      end
    | Restore edge ->
      if Hashtbl.mem t.severed edge then begin
        Hashtbl.remove t.severed edge;
        t.restored_count <- t.restored_count + 1;
        emit t ~kind:"edge-restore" ~edge ()
      end);
    t.next_sched <- t.next_sched + 1
  done

let alive t ~round:_ v = not (Hashtbl.mem t.crashed v)

let fate t ~round:_ ~src:_ ~edge =
  if Hashtbl.mem t.severed edge then begin
    t.dropped <- t.dropped + 1;
    emit t ~kind:"drop" ~edge ();
    Network.Drop
  end
  else if t.plan.Plan.drop > 0.0 && Rng.bernoulli t.rng t.plan.Plan.drop
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
    Network.Replicate 2
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
    Network.round_begin = (fun ~round -> round_begin t ~round);
    alive = (fun ~round v -> alive t ~round v);
    fate = (fun ~round ~src ~edge -> fate t ~round ~src ~edge);
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
