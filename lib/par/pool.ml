(* A fixed-size domain pool with batch submission.

   One batch runs at a time: tasks are claimed from a shared atomic
   counter, so the assignment of tasks to domains is scheduling-dependent
   — which is exactly why nothing here may affect results. Tasks write
   only into index-owned cells, reductions happen in index order on the
   submitting domain, and task failures are collected and re-raised by
   lowest index, so a batch behaves like its sequential elaboration.

   The mutex/condition pair does double duty as the memory barrier: a
   worker publishes its task's writes by taking the lock to bump
   [completed], and the submitter observes [completed = ntasks] under the
   same lock before reading any result cell. *)

type batch = {
  f : int -> unit;
  ntasks : int;
  next : int Atomic.t; (* next unclaimed task index *)
  mutable completed : int; (* protected by the pool mutex *)
  mutable failures : (int * exn * Printexc.raw_backtrace) list; (* ditto *)
}

(* Per-domain utilization cell. Written only by the owning domain (slot 0
   is the submitting domain, slot i >= 1 worker i), and each task's stat
   write happens before the completed-count bump takes the pool mutex, so
   the submitter's post-batch reads are well-ordered. Purely
   observational: never read on any result path. *)
type stat_cell = { mutable busy_ns : float; mutable tasks : int }

type t = {
  jobs : int;
  m : Mutex.t;
  work : Condition.t; (* workers: a new batch is available *)
  finished : Condition.t; (* submitter: batch complete / slot free *)
  mutable batch : batch option;
  mutable epoch : int; (* bumped per batch so a worker joins each once *)
  mutable stopped : bool;
  mutable workers : unit Domain.t list;
  stat_cells : stat_cell array; (* one per domain, slot 0 = submitter *)
  mutable stats_base_ns : float; (* wall clock at creation / last reset *)
}

type stat = { busy_ns : float; tasks : int }

let wall_ns () = Unix.gettimeofday () *. 1e9

(* Set while the calling domain executes a pool task — including inline
   execution under [jobs = 1], so nesting behaves identically at every
   pool size. *)
let in_task_key = Domain.DLS.new_key (fun () -> ref false)

let in_task () = !(Domain.DLS.get in_task_key)

let drain t ~slot b =
  let flag = Domain.DLS.get in_task_key in
  flag := true;
  let cell = t.stat_cells.(slot) in
  let rec loop () =
    let i = Atomic.fetch_and_add b.next 1 in
    if i < b.ntasks then begin
      let t0 = wall_ns () in
      (match b.f i with
      | () ->
        cell.busy_ns <- cell.busy_ns +. Float.max 0.0 (wall_ns () -. t0);
        cell.tasks <- cell.tasks + 1;
        Mutex.lock t.m;
        b.completed <- b.completed + 1
      | exception e ->
        cell.busy_ns <- cell.busy_ns +. Float.max 0.0 (wall_ns () -. t0);
        cell.tasks <- cell.tasks + 1;
        let bt = Printexc.get_raw_backtrace () in
        Mutex.lock t.m;
        b.failures <- (i, e, bt) :: b.failures;
        b.completed <- b.completed + 1);
      if b.completed = b.ntasks then Condition.broadcast t.finished;
      Mutex.unlock t.m;
      loop ()
    end
  in
  Fun.protect ~finally:(fun () -> flag := false) loop

let rec worker t ~slot last_epoch =
  Mutex.lock t.m;
  while (not t.stopped) && (t.batch = None || t.epoch = last_epoch) do
    Condition.wait t.work t.m
  done;
  if t.stopped then Mutex.unlock t.m
  else begin
    let epoch = t.epoch in
    let b = Option.get t.batch in
    Mutex.unlock t.m;
    drain t ~slot b;
    worker t ~slot epoch
  end

let shutdown t =
  Mutex.lock t.m;
  let ws = t.workers in
  t.stopped <- true;
  t.workers <- [];
  Condition.broadcast t.work;
  Mutex.unlock t.m;
  List.iter Domain.join ws

let create ~jobs =
  if jobs < 1 then invalid_arg "Pool.create: jobs must be >= 1";
  let t =
    {
      jobs;
      m = Mutex.create ();
      work = Condition.create ();
      finished = Condition.create ();
      batch = None;
      epoch = 0;
      stopped = false;
      workers = [];
      stat_cells =
        Array.init jobs (fun _ -> ({ busy_ns = 0.0; tasks = 0 } : stat_cell));
      stats_base_ns = wall_ns ();
    }
  in
  (* one spawn at a time, so that when the runtime refuses a domain the
     workers already started can be stopped and joined instead of leaked *)
  for slot = 1 to jobs - 1 do
    match Domain.spawn (fun () -> worker t ~slot 0) with
    | d -> t.workers <- d :: t.workers
    | exception e ->
      shutdown t;
      failwith
        (Printf.sprintf
           "Pool.create: the runtime refused a domain after %d of %d worker \
            domains started (%s)"
           (slot - 1) (jobs - 1)
           (match e with Failure msg -> msg | e -> Printexc.to_string e))
  done;
  t

let jobs t = t.jobs

let stats t =
  Array.map
    (fun (c : stat_cell) -> { busy_ns = c.busy_ns; tasks = c.tasks })
    t.stat_cells

let lifetime_ns t = Float.max 0.0 (wall_ns () -. t.stats_base_ns)

let reset_stats t =
  Array.iter
    (fun (c : stat_cell) ->
      c.busy_ns <- 0.0;
      c.tasks <- 0)
    t.stat_cells;
  t.stats_base_ns <- wall_ns ()

let reraise_first_failure b =
  match b.failures with
  | [] -> ()
  | fs ->
    let i0, e0, bt0 =
      List.fold_left
        (fun (i0, _, _ as acc) (i, _, _ as f) -> if i < i0 then f else acc)
        (List.hd fs) (List.tl fs)
    in
    ignore i0;
    Printexc.raise_with_backtrace e0 bt0

(* inline elaboration, used under [jobs = 1] and for 1-task batches: same
   failure semantics as the pooled path (every task runs, lowest-index
   failure re-raised) so behavior is identical at every pool size *)
let run_inline t ~ntasks f =
  let flag = Domain.DLS.get in_task_key in
  flag := true;
  let cell = t.stat_cells.(0) in
  let failures = ref [] in
  Fun.protect
    ~finally:(fun () -> flag := false)
    (fun () ->
      for i = 0 to ntasks - 1 do
        let t0 = wall_ns () in
        (try f i
         with e ->
           failures := (i, e, Printexc.get_raw_backtrace ()) :: !failures);
        cell.busy_ns <- cell.busy_ns +. Float.max 0.0 (wall_ns () -. t0);
        cell.tasks <- cell.tasks + 1
      done);
  match !failures with
  | [] -> ()
  | fs ->
    reraise_first_failure
      { f; ntasks; next = Atomic.make 0; completed = 0; failures = fs }

let run_batch t ~ntasks f =
  if ntasks < 0 then invalid_arg "Pool.run_batch: negative ntasks";
  if ntasks = 0 then ()
  else if in_task () then
    failwith
      "Kecss_par.Pool: nested parallel submission (a pool task must not \
       submit work to a pool)"
  else if t.jobs = 1 || ntasks = 1 then run_inline t ~ntasks f
  else begin
    let b =
      { f; ntasks; next = Atomic.make 0; completed = 0; failures = [] }
    in
    Mutex.lock t.m;
    if t.stopped then begin
      Mutex.unlock t.m;
      failwith "Kecss_par.Pool: pool is shut down"
    end;
    (* one batch at a time; a concurrent submitter queues here *)
    while t.batch <> None do
      Condition.wait t.finished t.m
    done;
    t.batch <- Some b;
    t.epoch <- t.epoch + 1;
    Condition.broadcast t.work;
    Mutex.unlock t.m;
    drain t ~slot:0 b;
    Mutex.lock t.m;
    while b.completed < b.ntasks do
      Condition.wait t.finished t.m
    done;
    t.batch <- None;
    Condition.broadcast t.finished;
    Mutex.unlock t.m;
    reraise_first_failure b
  end

(* ---------- the process-default pool ---------- *)

let env_jobs () =
  match Sys.getenv_opt "KECSS_JOBS" with
  | None -> None
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some j when j >= 1 -> Some j
    | _ -> None)

let requested_jobs = ref None
let default_pool = ref None
let exit_hook_installed = ref false

let default_jobs () =
  match !requested_jobs with
  | Some j -> j
  | None -> (
    match env_jobs () with
    | Some j -> j
    | None -> Domain.recommended_domain_count ())

let set_default_jobs j =
  if j < 1 then invalid_arg "Pool.set_default_jobs: jobs must be >= 1";
  (match !default_pool with
  | Some p when p.jobs <> j ->
    shutdown p;
    default_pool := None
  | _ -> ());
  requested_jobs := Some j

let default () =
  match !default_pool with
  | Some p -> p
  | None ->
    let p = create ~jobs:(default_jobs ()) in
    default_pool := Some p;
    if not !exit_hook_installed then begin
      exit_hook_installed := true;
      at_exit (fun () ->
          match !default_pool with
          | Some p ->
            default_pool := None;
            shutdown p
          | None -> ())
    end;
    p

(* ---------- deterministic combinators ---------- *)

let resolve = function Some p -> p | None -> default ()

let chunk_of ?chunk pool n =
  match chunk with
  | Some c when c >= 1 -> c
  | Some _ -> invalid_arg "Pool: chunk must be >= 1"
  | None ->
    (* ~4 tasks per worker for load balance; a pure performance knob *)
    max 1 (n / (4 * jobs pool))

let parallel_for ?pool ?chunk n f =
  if n > 0 then
    if in_task () then
      for i = 0 to n - 1 do
        f i
      done
    else begin
      let pool = resolve pool in
      let chunk = chunk_of ?chunk pool n in
      let ntasks = (n + chunk - 1) / chunk in
      run_batch pool ~ntasks (fun task ->
          let lo = task * chunk in
          let hi = min n (lo + chunk) - 1 in
          for i = lo to hi do
            f i
          done)
    end

let map ?pool ?chunk f a =
  let n = Array.length a in
  if n = 0 then [||]
  else begin
    (* option cells keep the result array representation-safe for every
       ['b] (including float) without a sequential first application *)
    let out = Array.make n None in
    parallel_for ?pool ?chunk n (fun i -> out.(i) <- Some (f a.(i)));
    Array.map
      (function Some x -> x | None -> assert false (* all indices ran *))
      out
  end

let map_reduce ?pool ?chunk ~map:mapf ~merge ~init n =
  if n <= 0 then init
  else begin
    let out = Array.make n None in
    parallel_for ?pool ?chunk n (fun i -> out.(i) <- Some (mapf i));
    Array.fold_left
      (fun acc cell ->
        match cell with Some x -> merge acc x | None -> assert false)
      init out
  end
