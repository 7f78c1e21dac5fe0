(** The experiment suite: one entry per table/figure of DESIGN.md §4.

    Every experiment regenerates one of the paper's claims (a theorem's
    round/approximation behaviour, a lemma's structural bound, or a
    figure) as a printed table; EXPERIMENTS.md records the paper-vs-measured
    comparison. Experiments are deterministic: fixed workload seeds, fixed
    algorithm seeds — and telemetry never changes what they print: the
    CLI registers its probe once ({!set_probe}) and every engine run of
    every experiment records into a ledger on its own fork of it. *)

type output = { tables : Table.t list; text : string option }

val set_probe :
  Kecss_obs.Probe.t ->
  hook:(Kecss_obs.Probe.t -> Kecss_congest.Network.hook option) ->
  unit
(** Register the run's probe (the CLI's telemetry) together with the
    maker of each ledger's fault hook; the default is
    {!Kecss_obs.Probe.noop} and no hook. Every engine run of every
    experiment charges a ledger that records into its own
    {!Kecss_obs.Probe.fork} of the probe and gets its hook from [hook]
    applied to that fork. The forks behind a telemetry snapshot table
    (T1.1-, T1.2- and T1.3-rounds, M-messages) always carry an engine
    metrics collector of their own, so a snapshot row reads the ledger it
    names; the others have one only when the probe records metrics.
    Every experiment that runs the engine fans its workload cells out
    over {!Kecss_par.Pool.default}; the forks are joined back in
    canonical cell order ({!Kecss_obs.Probe.join}), so the run's event
    stream, metrics totals and table rows are byte-identical to a
    sequential run at any [--jobs]. *)

type exp = {
  id : string;          (** e.g. "T1.1-rounds" *)
  title : string;
  paper_claim : string; (** the claim being reproduced, quoted/condensed *)
  quick : bool;         (** cheap enough for the default bench run *)
  run : unit -> output;
}

val all : exp list
(** In DESIGN.md order. *)

val find : string -> exp option

val run_and_print : exp -> output
(** Runs, prints the header, claim, tables and text to stdout, and returns
    the output. *)
