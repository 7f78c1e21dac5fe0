(** Seeded, deterministic fault plans.

    A plan describes {e what} the adversarial network does — message
    drops, bounded delays, duplications, vertex crash-stops, edge
    failures — without touching any engine state; {!Net} compiles it,
    together with its seed, into an engine interposition hook. Two runs
    of the same program under the same plan inject the identical fault
    sequence.

    Plans compose: each probabilistic fault combines as independent
    events ([p = 1 - (1-p1)(1-p2)]), scheduled faults (crashes, cuts)
    accumulate. The compact spec syntax ({!of_spec}) is what the CLI's
    [--faults] flag accepts:

    {v drop=0.05,delay=0.1:3,dup=0.02,crash=v17@r40,cut=e3@r0,seed=7 v}

    reads: drop each message with probability 0.05; delay each surviving
    message with probability 0.1 by 1–3 rounds; duplicate with
    probability 0.02; crash-stop vertex 17 at engine round 40; sever edge
    3 from round 0 on; derive all randomness from seed 7. Rounds are the
    injector's global engine-pass clock, cumulative across the many
    engine runs of one solve. *)

type t = {
  drop : float;          (** per-message loss probability, 0 = off *)
  delay_p : float;       (** per-message delay probability, 0 = off *)
  delay_max : int;       (** delays are uniform in [1, delay_max] rounds *)
  duplicate : float;     (** per-message duplication probability, 0 = off *)
  crashes : (int * int) list;  (** (vertex, round) crash-stops *)
  cuts : (int * int) list;     (** (edge, round) edge failures *)
  ins : (int * int) list;
      (** (edge, round) edge inserts/restores: a cut edge comes back, or —
          when a plan is reinterpreted as a [kecss serve] churn stream —
          an edge of the universe (re)joins the live graph *)
  seed : int;            (** seed of the injector's random stream *)
}

val empty : t
(** No faults, seed 1. *)

val is_empty : t -> bool
(** Does the plan inject nothing (seed ignored)? *)

(** {1 Combinators} *)

val drop : float -> t
(** [drop p]: lose each message independently with probability [p].
    Raises [Invalid_argument] unless [0 <= p <= 1]. *)

val delay : p:float -> max:int -> t
(** [delay ~p ~max]: postpone each message with probability [p] by a
    uniform 1..[max] rounds. Raises [Invalid_argument] unless
    [0 <= p <= 1] and [max >= 1]. *)

val duplicate : float -> t
(** [duplicate p]: deliver two copies with probability [p]. *)

val crash : vertex:int -> round:int -> t
(** [crash ~vertex ~round]: vertex crash-stops at the given global engine
    round (0-based) and never steps again. *)

val cut : edge:int -> round:int -> t
(** [cut ~edge ~round]: the edge fails at the given global engine round;
    every message sent on it afterwards is lost (until a later
    {!insert} restores it). *)

val insert : edge:int -> round:int -> t
(** [insert ~edge ~round]: the edge (re)appears at the given global
    engine round. Under {!Net} this restores a previously cut edge (a
    no-op if the edge is live); as a [kecss serve] churn stream it is an
    edge-insert update. At the same round, cuts activate before
    inserts. *)

val with_seed : int -> t -> t

type event = Crash of int | Cut of int | Insert of int

val schedule : t -> (int * event) list
(** The crashes, cuts and inserts as [(round, event)] in the order
    {!Net} activates them and [kecss serve]'s churn applies them: by
    round, at one round crashes, cuts, then inserts (so a cut and an
    insert of one edge at one round leave it live), each in spec
    order. *)

val compose : t -> t -> t
(** Independent union of the two plans' faults. The seed of the left
    operand wins unless it is the default and the right's is not. *)

val ( ++ ) : t -> t -> t
(** Infix {!compose}. *)

(** {1 Spec syntax} *)

val of_spec : string -> (t, string) result
(** Parse the compact comma-separated spec shown above. Keys: [drop=P],
    [delay=P] or [delay=P:MAX], [dup=P], [crash=vV@rR], [cut=eE@rR],
    [ins=eE@rR] (the scheduled kinds all repeatable), [seed=N]. Returns
    a descriptive error on malformed input or out-of-range values. *)

val to_spec : t -> string
(** Canonical spec string; [of_spec (to_spec p)] is [Ok p] up to the
    order of crash/cut/ins entries. *)
