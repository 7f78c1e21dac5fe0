type violation = {
  invariant : string;
  detail : string;
  event : Trace.event;
}

(* per-augmentation-run, per-algorithm checker state *)
type algo_state = {
  mutable last_remaining : int option;
  mutable last_p_exp : int option;
  mutable last_phase : int;
  mutable iteration_bound : int option;
}

type t = {
  algos : (string, algo_state) Hashtbl.t;
  mutable violations_rev : violation list;
  mutable n_violations : int;
  mutable n_events : int;
  mutable anomalies_rev : violation list;
  mutable n_anomalies : int;
  mutable n_faults : int;
  fault_kinds : (string, int) Hashtbl.t;
}

let create () =
  {
    algos = Hashtbl.create 8;
    violations_rev = [];
    n_violations = 0;
    n_events = 0;
    anomalies_rev = [];
    n_anomalies = 0;
    n_faults = 0;
    fault_kinds = Hashtbl.create 8;
  }

let state t algo =
  match Hashtbl.find_opt t.algos algo with
  | Some s -> s
  | None ->
    let s =
      {
        last_remaining = None;
        last_p_exp = None;
        last_phase = 0;
        iteration_bound = None;
      }
    in
    Hashtbl.add t.algos algo s;
    s

let reset_run s =
  s.last_remaining <- None;
  s.last_p_exp <- None;
  s.last_phase <- 0

(* A failed check after any injected fault is an {e anomaly} attributed to
   the injection, not a violation: a faulty network voids the solvers'
   invariant guarantees, and blaming the algorithm for them would make
   every fault run "fail". On fault-free streams this is the identity. *)
let violate t ~invariant ~event fmt =
  Printf.ksprintf
    (fun detail ->
      let entry = { invariant; detail; event } in
      if t.n_faults > 0 then begin
        t.anomalies_rev <- entry :: t.anomalies_rev;
        t.n_anomalies <- t.n_anomalies + 1
      end
      else begin
        t.violations_rev <- entry :: t.violations_rev;
        t.n_violations <- t.n_violations + 1
      end)
    fmt

let arg_int args key =
  match List.assoc_opt key args with Some (Trace.Int i) -> Some i | _ -> None

let arg_str args key =
  match List.assoc_opt key args with Some (Trace.Str s) -> Some s | _ -> None

let arg_bool args key =
  match List.assoc_opt key args with Some (Trace.Bool b) -> Some b | _ -> None

let log2_ceil n =
  let rec go acc v = if v >= n then acc else go (acc + 1) (2 * v) in
  go 0 1

(* the explicit-constant finite-size iteration bounds: the solver defaults
   (Tap.default_config, Augk.default_config and Ecss3's iteration cap)
   plus the +n unconditional-termination slack *)
let iteration_bound ~algo ~n =
  let l = max 1 (log2_ceil (n + 1)) in
  match algo with
  | "tap" -> Some ((64 * l * l) + 200 + n)
  | "augk" | "ecss3" -> Some ((20 * l * l * l) + 500 + n)
  | _ -> None

(* independent re-derivation of Cost.level: the smallest z with
   2^z * weight > covered (z may be negative); max_int when weight = 0 *)
let expected_level ~covered ~weight =
  if weight = 0 then max_int
  else if weight <= covered then begin
    let rec go z acc = if acc > covered then z else go (z + 1) (2 * acc) in
    go 0 weight
  end
  else begin
    let rec go tpow pow = if weight > covered * pow then go (tpow + 1) (2 * pow) else tpow in
    -(go 0 1 - 1)
  end

let on_instance_size t event args =
  match (arg_str args "algo", arg_int args "n") with
  | Some algo, Some n ->
    let s = state t algo in
    reset_run s;
    s.iteration_bound <- iteration_bound ~algo ~n;
    ignore event
  | _ -> ()

let on_iteration_begin t event name args =
  (* span "<algo>/iteration" *)
  match String.index_opt name '/' with
  | Some i when String.sub name i (String.length name - i) = "/iteration" -> (
    let algo = String.sub name 0 i in
    match arg_int args "index" with
    | None -> ()
    | Some index -> (
      let s = state t algo in
      match s.iteration_bound with
      | Some bound when index > bound ->
        violate t ~invariant:"iteration-bound" ~event
          "%s iteration %d exceeds the bound %d" algo index bound
      | _ -> ()))
  | _ -> ()

let on_iteration_outcome t event args =
  match (arg_str args "algo", arg_int args "added", arg_int args "remaining") with
  | Some algo, Some added, Some remaining ->
    if added < 0 then
      violate t ~invariant:"coverage-monotone" ~event
        "%s iteration reports %d added edges" algo added;
    if remaining >= 0 then begin
      let s = state t algo in
      (match s.last_remaining with
      | Some prev when remaining > prev ->
        violate t ~invariant:"coverage-monotone" ~event
          "%s coverage regressed: %d uncovered after %d" algo remaining prev
      | _ -> ());
      s.last_remaining <- Some remaining
    end
  | _ -> ()

let on_vote_audit t event args =
  match
    (arg_int args "edge", arg_int args "votes", arg_int args "ce",
     arg_int args "divisor")
  with
  | Some edge, Some votes, Some ce, Some divisor ->
    if divisor < 1 then
      violate t ~invariant:"vote-threshold" ~event
        "edge %d accepted with divisor %d < 1" edge divisor
    else if divisor * votes < ce then
      violate t ~invariant:"vote-threshold" ~event
        "edge %d accepted with %d votes < ceil(|Ce|/%d) = %d (|Ce| = %d)"
        edge votes divisor ((ce + divisor - 1) / divisor) ce
  | _ -> ()

let on_rho_audit t event args =
  match
    (arg_str args "algo", arg_int args "edge", arg_int args "covered",
     arg_int args "weight", arg_int args "level")
  with
  | Some algo, Some edge, Some covered, Some weight, Some level ->
    if covered <= 0 then
      violate t ~invariant:"rho-rounding" ~event
        "%s committed edge %d that covers nothing (|Ce| = %d)" algo edge
        covered
    else begin
      let expected = expected_level ~covered ~weight in
      if level <> expected then
        violate t ~invariant:"rho-rounding" ~event
          "%s edge %d: level 2^%d is not the rounding of |Ce|/w = %d/%d \
           (expected 2^%d)"
          algo edge level covered weight expected
    end
  | _ -> ()

let on_probability_doubling t event args =
  match
    (arg_str args "algo", arg_int args "p_exp", arg_int args "phase",
     arg_bool args "reset")
  with
  | Some algo, Some p_exp, Some phase, Some reset ->
    let s = state t algo in
    if p_exp < 0 then
      violate t ~invariant:"probability-schedule" ~event
        "%s activation probability 2^-%d exceeds 1" algo p_exp;
    if s.last_phase > 0 && phase <> s.last_phase + 1 then
      violate t ~invariant:"probability-schedule" ~event
        "%s phase jumped %d -> %d" algo s.last_phase phase;
    (match (reset, s.last_p_exp) with
    | false, Some prev when p_exp <> prev - 1 ->
      violate t ~invariant:"probability-schedule" ~event
        "%s probability step 2^-%d -> 2^-%d is not a doubling" algo prev
        p_exp
    | false, None ->
      violate t ~invariant:"probability-schedule" ~event
        "%s doubling step before any schedule reset" algo
    | _ -> ());
    s.last_p_exp <- Some p_exp;
    s.last_phase <- phase
  | _ -> ()

let on_fault t args =
  t.n_faults <- t.n_faults + 1;
  let kind = Option.value ~default:"?" (arg_str args "kind") in
  let prev = Option.value ~default:0 (Hashtbl.find_opt t.fault_kinds kind) in
  Hashtbl.replace t.fault_kinds kind (prev + 1)

let observe t (e : Trace.event) =
  t.n_events <- t.n_events + 1;
  match (e.Trace.kind, e.Trace.name) with
  | Trace.Instant, "fault injected" -> on_fault t e.Trace.args
  | Trace.Instant, "instance size" -> on_instance_size t e e.Trace.args
  | Trace.Instant, "iteration outcome" -> on_iteration_outcome t e e.Trace.args
  | Trace.Instant, "vote audit" -> on_vote_audit t e e.Trace.args
  | Trace.Instant, "rho audit" -> on_rho_audit t e e.Trace.args
  | Trace.Instant, "probability doubling" ->
    on_probability_doubling t e e.Trace.args
  | Trace.Span_begin, name -> on_iteration_begin t e name e.Trace.args
  | _ -> ()

let attach t trace = Trace.subscribe trace (observe t)
let check_all t events = List.iter (observe t) events
let violations t = List.rev t.violations_rev
let anomalies t = List.rev t.anomalies_rev
let ok t = t.n_violations = 0
let events_seen t = t.n_events
let faults_seen t = t.n_faults

let faults_by_kind t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.fault_kinds []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let pp_violation ppf v =
  Format.fprintf ppf "[%s] @[%s@] (event %S at round %.0f)" v.invariant
    v.detail v.event.Trace.name v.event.Trace.ts

let pp_fault_tail ppf t =
  if t.n_faults > 0 then begin
    Format.fprintf ppf " (%d injected fault%s recognized" t.n_faults
      (if t.n_faults = 1 then "" else "s");
    if t.n_anomalies > 0 then
      Format.fprintf ppf ", %d fault-attributed anomal%s" t.n_anomalies
        (if t.n_anomalies = 1 then "y" else "ies");
    Format.fprintf ppf ")"
  end

let pp_report ppf t =
  if ok t then
    Format.fprintf ppf "monitor: all invariants hold over %d events%a"
      t.n_events pp_fault_tail t
  else begin
    Format.fprintf ppf "@[<v>monitor: %d invariant violation%s over %d events%a"
      t.n_violations
      (if t.n_violations = 1 then "" else "s")
      t.n_events pp_fault_tail t;
    List.iter
      (fun v -> Format.fprintf ppf "@,  %a" pp_violation v)
      (violations t);
    Format.fprintf ppf "@]"
  end

let to_json t =
  Json.List
    (List.map
       (fun v ->
         Json.Obj
           [
             ("invariant", Json.Str v.invariant);
             ("detail", Json.Str v.detail);
             ("event", Json.Str v.event.Trace.name);
             ("ts", Json.Float v.event.Trace.ts);
           ])
       (violations t))
