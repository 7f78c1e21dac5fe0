open Kecss_graph
open Kecss_obs

type problem = {
  elements : int;
  candidates : int;
  weight : int -> int;
  covered_by : int -> (int -> unit) -> unit;
}

type strategy =
  | Voting of { divisor : int }
  | Guessing of { m_phase : int }

type iteration = {
  index : int;
  level : Cost.level;
  candidates : int;
  added : int;
  uncovered_left : int;
}

type result = {
  chosen : Bitset.t;
  iterations : int;
  weight : int;
  cost_sum : float;
  forced : int;
  phases : int;
  log : iteration list;
}

let log2_ceil n =
  let rec go acc v = if v >= n then acc else go (acc + 1) (2 * v) in
  go 0 1

(* ----- the §4 probability schedule ----- *)

type schedule = {
  trace : Trace.t;
  algo : string;
  start_exp : int; (* p at a new level *)
  phase_len : int;
  mutable level : Cost.level;
  mutable p_exp : int; (* p = 2^-p_exp *)
  mutable phase_iter : int;
  mutable phases : int;
}

let schedule ~trace ~algo ~candidates ~phase_len =
  {
    trace;
    algo;
    start_exp = log2_ceil (candidates + 1);
    phase_len = max 1 phase_len;
    level = Cost.useless;
    p_exp = 0;
    phase_iter = 0;
    phases = 0;
  }

let next_phase s ~reset =
  s.phase_iter <- 0;
  s.phases <- s.phases + 1;
  Events.probability_doubling s.trace ~algo:s.algo ~p_exp:s.p_exp
    ~phase:s.phases ~reset

let enter s level =
  if level <> s.level then begin
    s.level <- level;
    s.p_exp <- s.start_exp;
    next_phase s ~reset:true
  end

let activate s rng =
  s.p_exp = 0 || Rng.bernoulli rng (Float.pow 2.0 (float_of_int (-s.p_exp)))

let certain s = s.p_exp = 0

let advance s =
  s.phase_iter <- s.phase_iter + 1;
  if s.phase_iter >= s.phase_len && s.p_exp > 0 then begin
    s.p_exp <- s.p_exp - 1;
    next_phase s ~reset:false
  end

let phases s = s.phases

(* ----- coverage state ----- *)

type state = {
  p : problem;
  covered : bool array;
  mutable uncovered : int;
  ce : int array; (* per candidate: uncovered elements it covers *)
  cov_off : int array; (* CSR element -> covering candidates, offsets *)
  cov : int array;
  index : Level_index.t; (* live candidates bucketed by Cost.level *)
  chosen : Bitset.t;
}

let covered st el = st.covered.(el)
let chosen st = st.chosen

(* the element -> candidate map is a counting sort over two passes of
   [covered_by]: count, then fill *)
let init p =
  if p.elements < 0 || p.candidates < 0 then invalid_arg "Cover: negative sizes";
  let ce = Array.make (max 1 p.candidates) 0 in
  let cov_off = Array.make (p.elements + 1) 0 in
  for c = 0 to p.candidates - 1 do
    p.covered_by c (fun el ->
        if el < 0 || el >= p.elements then invalid_arg "Cover: element out of range";
        ce.(c) <- ce.(c) + 1;
        cov_off.(el + 1) <- cov_off.(el + 1) + 1)
  done;
  for el = 0 to p.elements - 1 do
    if cov_off.(el + 1) = 0 then
      invalid_arg (Printf.sprintf "Cover: element %d uncoverable" el);
    cov_off.(el + 1) <- cov_off.(el + 1) + cov_off.(el)
  done;
  let cov = Array.make (max 1 cov_off.(p.elements)) 0 in
  let fill = Array.copy cov_off in
  for c = 0 to p.candidates - 1 do
    p.covered_by c (fun el ->
        cov.(fill.(el)) <- c;
        fill.(el) <- fill.(el) + 1)
  done;
  let index =
    Level_index.create ~universe:p.candidates ~level:(fun c ->
        Cost.level ~covered:ce.(c) ~weight:(p.weight c))
  in
  for c = 0 to p.candidates - 1 do
    Level_index.add index c
  done;
  {
    p;
    covered = Array.make p.elements false;
    uncovered = p.elements;
    ce;
    cov_off;
    cov;
    index;
    chosen = Bitset.create (max 1 p.candidates);
  }

let commit st c =
  if not (Bitset.mem st.chosen c) then begin
    Bitset.add st.chosen c;
    Level_index.retire st.index c;
    st.p.covered_by c (fun el ->
        if not st.covered.(el) then begin
          st.covered.(el) <- true;
          st.uncovered <- st.uncovered - 1;
          for i = st.cov_off.(el) to st.cov_off.(el + 1) - 1 do
            let c' = st.cov.(i) in
            st.ce.(c') <- st.ce.(c') - 1;
            Level_index.touch st.index c'
          done
        end)
  end

(* warm start: commit the caller's pre-chosen candidates before the
   engine runs, so coverage flips propagate once through the index and
   only the uncovered remainder is solved for. An incremental
   maintainer re-covering after churn seeds this with the surviving
   solution and pays O(deficit), not O(elements). *)
let warm_start st = function
  | None -> ()
  | Some warm ->
    Bitset.iter
      (fun c ->
        if c < 0 || c >= st.p.candidates then
          invalid_arg "Cover: initial candidate out of range";
        commit st c)
      warm

type stage =
  | Start
  | Agreed of Cost.level
  | Committed of { active : Bitset.t; added : int list }

let rank_bound = 1 lsl 60

let solve ?(trace = Trace.noop) ?(algo = "cover") ?size ?max_iterations
    ?initial ?(filter = fun _ _ _ -> true) ?(charge = fun _ _ -> ()) rng p
    strategy =
  let st = init p in
  warm_start st initial;
  let size =
    match size with Some n -> n | None -> max 2 (max p.elements p.candidates)
  in
  let l = log2_ceil (size + 1) in
  let max_iterations =
    match max_iterations with Some m -> m | None -> (40 * l * l * l) + 300
  in
  let m_phase = match strategy with Guessing { m_phase } -> m_phase | Voting _ -> 1 in
  let sched =
    schedule ~trace ~algo ~candidates:p.candidates ~phase_len:(m_phase * l)
  in
  (* the candidates activated (guessing) or voted in (voting) this iteration *)
  let active = Bitset.create (max 1 p.candidates) in
  (* voting scratch, allocated once: per candidate its rank and vote count,
     per element the candidate it votes for, valid when [stamp] holds the
     current iteration — no per-iteration clearing *)
  let rank = Array.make (max 1 p.candidates) 0 in
  let votes = Array.make (max 1 p.candidates) 0 in
  let vote_for = Array.make (max 1 p.elements) 0 in
  let stamp = Array.make (max 1 p.elements) 0 in
  let cost_sum = ref 0.0 and forced = ref 0 and log = ref [] in
  (* §3 lines 3–5: ranks drawn in ascending id order, each uncovered
     element votes for its minimum-rank coverer (candidates are visited
     in ascending id, so a rank tie keeps the smaller id), and a
     candidate with at least |Ce|/divisor votes joins *)
  let vote ~divisor it cands =
    List.iter (fun c -> rank.(c) <- Rng.int rng rank_bound + 1) cands;
    List.iter
      (fun c ->
        p.covered_by c (fun el ->
            if
              (not st.covered.(el))
              && (stamp.(el) <> it || rank.(c) < rank.(vote_for.(el)))
            then begin
              stamp.(el) <- it;
              vote_for.(el) <- c
            end))
      cands;
    let voters = ref 0 in
    for el = 0 to p.elements - 1 do
      if stamp.(el) = it then begin
        votes.(vote_for.(el)) <- votes.(vote_for.(el)) + 1;
        incr voters
      end
    done;
    let added =
      List.fold_left
        (fun added c ->
          let v = votes.(c) in
          votes.(c) <- 0;
          if divisor * v >= st.ce.(c) then begin
            Events.vote_audit trace ~edge:c ~votes:v ~ce:st.ce.(c) ~divisor;
            Bitset.add active c;
            c :: added
          end
          else added)
        [] cands
    in
    Events.votes_collected trace ~voters:!voters ~added:(List.length added);
    (* §3.3 charging, before coverage flips: an element whose chosen
       candidate joins pays w/|Ce| of that candidate *)
    for el = 0 to p.elements - 1 do
      let c = vote_for.(el) in
      if stamp.(el) = it && Bitset.mem active c then
        cost_sum := !cost_sum +. (float_of_int (p.weight c) /. float_of_int st.ce.(c))
    done;
    added
  in
  (* §4: each max-level candidate activates with the scheduled p, drawn
     in ascending id order; [filter] picks the survivors *)
  let guess it level =
    enter sched level;
    if it > max_iterations then begin
      (* unconditional termination: p pinned to 1 *)
      incr forced;
      sched.p_exp <- 0
    end;
    Level_index.iter_at st.index level (fun c ->
        if activate sched rng then Bitset.add active c);
    let n_active = Bitset.cardinal active in
    Events.candidate_census trace ~algo ~level ~candidates:n_active;
    let keep = if n_active = 0 then Fun.const false else filter st active in
    (n_active, Bitset.fold (fun c acc -> if keep c then c :: acc else acc) active [])
  in
  charge st Start;
  Events.instance_size trace ~algo ~n:size;
  let it = ref 0 in
  while st.uncovered > 0 do
    incr it;
    Events.iteration_begin trace ~algo ~index:!it;
    let level = Level_index.max_level st.index in
    assert (Cost.is_candidate_level level);
    let census, added =
      match strategy with
      | Voting { divisor } ->
        let cands = Level_index.candidates_at st.index level in
        let census = List.length cands in
        if Trace.enabled trace then begin
          Events.level_histogram trace ~algo (Level_index.histogram st.index);
          Events.candidate_census trace ~algo ~level ~candidates:census
        end;
        charge st (Agreed level);
        if !it > max_iterations then begin
          (* unconditional termination: one greedy step *)
          incr forced;
          (census, [ List.hd cands ])
        end
        else (census, vote ~divisor !it cands)
      | Guessing _ ->
        charge st (Agreed level);
        guess !it level
    in
    (* audit the rounding evidence while |Ce| is still pre-commit *)
    if Trace.enabled trace then
      List.iter
        (fun c ->
          Events.rho_audit trace ~algo ~edge:c ~covered:st.ce.(c)
            ~weight:(p.weight c) ~level)
        added;
    List.iter (commit st) added;
    charge st (Committed { active; added });
    Bitset.clear active;
    (match strategy with Guessing _ -> advance sched | Voting _ -> ());
    let n_added = List.length added in
    Events.iteration_end trace ~algo ~added:n_added ~remaining:st.uncovered;
    log :=
      { index = !it; level; candidates = census; added = n_added;
        uncovered_left = st.uncovered }
      :: !log
  done;
  {
    chosen = st.chosen;
    iterations = !it;
    weight = Bitset.fold (fun c acc -> acc + p.weight c) st.chosen 0;
    cost_sum = !cost_sum;
    forced = !forced;
    phases = sched.phases;
    log = List.rev !log;
  }

let greedy ?initial p =
  let st = init p in
  warm_start st initial;
  while st.uncovered > 0 do
    (* the exact maximizer of ce/w is always in the top rounded bucket:
       a level-l candidate has ce/w ≥ 2^(l-1), strictly above every
       ratio in lower buckets — so only that bucket need be scanned *)
    let level = Level_index.max_level st.index in
    assert (Cost.is_candidate_level level);
    let best = ref (-1) and best_key = ref (0, 0) in
    (* maximize ce/w: compare fractions by cross-multiplication *)
    Level_index.iter_at st.index level (fun c ->
        let key = (st.ce.(c), p.weight c) in
        let better =
          !best < 0
          ||
          let bc, bw = !best_key and cc, cw = key in
          if bw = 0 then false
          else if cw = 0 then true
          else cc * bw > bc * cw
        in
        if better then begin
          best := c;
          best_key := key
        end);
    assert (!best >= 0);
    commit st !best
  done;
  st.chosen

let is_cover p chosen =
  let covered = Array.make p.elements false in
  Bitset.iter (fun c -> p.covered_by c (fun el -> covered.(el) <- true)) chosen;
  Array.for_all Fun.id covered
