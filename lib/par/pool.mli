(** Deterministic multicore execution on a fixed-size domain pool.

    The whole stack is seeded and reproducible; this module lets the
    embarrassingly parallel pieces (Karger trial blocks, failure-set
    sampling, experiment cells) use every core without giving that up.
    The contract every caller relies on:

    {e the result of a pool operation depends only on the submitted tasks
    and their canonical indices — never on the number of domains or on
    scheduling.}

    Two rules make that hold by construction. First, a task communicates
    only through its own index: it writes cells no other task writes, and
    {!map_reduce} merges task results strictly in ascending index order on
    the submitting domain. Second, randomness is derived {e before}
    fan-out: callers split one parent [Rng.t] into per-task streams in
    index order, so a task draws the same numbers whether it runs on the
    submitting domain, a worker, or inline under [jobs = 1].

    A pool has a fixed size chosen at creation ([jobs = 1] bypasses
    domains entirely and runs inline). Tasks must not submit to a pool:
    the core {!run_batch} rejects nested submission, while the derived
    combinators ({!parallel_for}, {!map}, {!map_reduce}) degrade to inline
    sequential execution when called from inside a task — which yields the
    same result, by the determinism contract — so library code can use
    them unconditionally. *)

type t

val create : jobs:int -> t
(** [create ~jobs] starts a pool of [jobs] workers ([jobs - 1] spawned
    domains plus the submitting domain). [jobs = 1] spawns nothing; every
    operation runs inline. Raises [Invalid_argument] if [jobs < 1]. If
    the runtime refuses a domain (it caps how many may run at once), the
    workers already started are stopped and joined, and [Failure] names
    [Pool.create] and how many of them had started. *)

val jobs : t -> int

val shutdown : t -> unit
(** Terminate and join the worker domains. Idempotent. Submitting to a
    shut-down pool raises [Failure]. *)

(** {1 The process-default pool}

    Sized from, in priority order: {!set_default_jobs}, the [KECSS_JOBS]
    environment variable, [Domain.recommended_domain_count ()]. Created
    lazily on first use and shut down at exit. *)

val default : unit -> t

val default_jobs : unit -> int
(** The size {!default} has, or would be created with. *)

val set_default_jobs : int -> unit
(** Override the default pool size (the CLI's [--jobs]). If the default
    pool already exists at a different size it is shut down and will be
    re-created on next use. Raises [Invalid_argument] if [jobs < 1]. *)

(** {1 Utilization instrumentation}

    Purely observational per-domain counters — wall-clock time spent
    executing tasks and the number of tasks executed — for the
    [--profile] reports. Each domain writes only its own cell, and
    nothing on any result path ever reads them, so the determinism
    contract is untouched. Note that {e which} domain ran a task is
    scheduling-dependent by design: the busy/task split across domains
    varies run to run even though results never do. *)

type stat = { busy_ns : float; tasks : int }

val stats : t -> stat array
(** One entry per domain in domain order; index 0 is the submitting
    domain, index [i >= 1] the [i]-th spawned worker. Read after batches
    complete (mid-batch reads may miss in-flight tasks). *)

val lifetime_ns : t -> float
(** Wall-clock nanoseconds since the pool was created (or since
    {!reset_stats}) — the denominator for a busy/idle utilization view. *)

val reset_stats : t -> unit
(** Zero the counters and restart the lifetime clock, so a profiled
    section can be measured on its own. *)

(** {1 Core batch submission} *)

val run_batch : t -> ntasks:int -> (int -> unit) -> unit
(** [run_batch t ~ntasks f] runs [f 0 .. f (ntasks - 1)], distributed
    over the pool; the submitting domain participates. Returns when all
    tasks have finished. [ntasks = 0] returns immediately. If tasks
    raised, the exception of the {e lowest-indexed} failing task is
    re-raised (with its backtrace) after the batch completes, and the
    pool remains usable. Raises [Failure] when called from inside a pool
    task: a task must not submit work. *)

(** {1 Deterministic combinators}

    All three run inline (sequentially, in index order) when called from
    inside a pool task. [?pool] defaults to {!default}. [?chunk] is the
    number of consecutive indices per submitted task — a performance
    knob only; results never depend on it. *)

val parallel_for : ?pool:t -> ?chunk:int -> int -> (int -> unit) -> unit
(** [parallel_for n f] runs [f i] for [i] in [0 .. n - 1]. [f] must
    confine its writes to index-[i]-owned cells. *)

val map : ?pool:t -> ?chunk:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map f a] is [Array.map f a], computed on the pool. *)

val map_reduce :
  ?pool:t ->
  ?chunk:int ->
  map:(int -> 'a) ->
  merge:('acc -> 'a -> 'acc) ->
  init:'acc ->
  int ->
  'acc
(** [map_reduce ~map ~merge ~init n] computes [map i] for every index on
    the pool, then folds [merge] over the results {e in ascending index
    order} on the calling domain — the canonical-order merge that makes
    reductions independent of scheduling. *)
