(* The end-to-end benchmark of kecss: five seeded workloads over
   load → solve → verify and the resident service, each measured from
   outside through the libraries' public functions, checked, and
   reported as the metrics BENCHMARK.json declares.

   One workload, one seed (the command BENCHMARK.json names):
     kecss_bench.exe --workload W --seed S [--seconds T] [--trace [0|1]]
                     [--out FILE] [--smoke]
   A set of runs — every workload (or the one named) for seeds
   S .. S+N-1, each run in a fresh child process:
     kecss_bench.exe [--workload W] [--seed S] [--runs N] [--seconds T]
                     [--trace [0|1]] [--out FILE] [--smoke]
   Agreement of two sets, with the bounds of ./BENCHMARK.json:
     kecss_bench.exe --agree A.json B.json

   Untraced runs print the end-to-end metrics; [--trace] runs add the
   per-layer metrics (and, with [--out FILE], write the harness's spans
   to FILE.trace.json). The last line of standard output is always one
   JSON object with [correct], [attempted], [failed] and [metrics]. *)

open Kecss_e2e

let usage =
  "usage: kecss_bench.exe [--workload W] [--seed S] [--runs N] [--seconds T]\n\
  \                       [--trace [0|1]] [--out FILE] [--smoke]\n\
  \       kecss_bench.exe --agree A.json B.json\n"

let workloads = List.map (fun w -> w.Batch.name) Batch.workloads @ [ Churn.name ]

(* scratch files (fixtures, child results) live under the build tree *)
let dir = Filename.concat "_build" "kecss-bench"

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ when Sys.file_exists d -> ()
  end

type opts = {
  workload : string option;
  seed : int;
  runs : int;
  seconds : float;
  trace : bool;
  out : string option;
  smoke : bool;
  agree : (string * string) option;
}

let die msg =
  prerr_string (msg ^ "\n" ^ usage);
  exit 2

let parse args =
  let int_arg flag v =
    match int_of_string_opt v with Some i -> i | None -> die (flag ^ " expects an integer")
  in
  let rec go o = function
    | [] -> o
    | "--workload" :: w :: rest ->
      if not (List.mem w workloads) then
        die ("unknown workload " ^ w ^ "; one of " ^ String.concat ", " workloads);
      go { o with workload = Some w } rest
    | "--seed" :: v :: rest -> go { o with seed = int_arg "--seed" v } rest
    | "--runs" :: v :: rest -> go { o with runs = max 1 (int_arg "--runs" v) } rest
    | "--seconds" :: v :: rest -> (
      match float_of_string_opt v with
      | Some s when s >= 0.0 -> go { o with seconds = s } rest
      | _ -> die "--seconds expects a non-negative number")
    | "--trace" :: ("0" | "1" as v) :: rest -> go { o with trace = v = "1" } rest
    | "--trace" :: rest -> go { o with trace = true } rest
    | "--out" :: f :: rest -> go { o with out = Some f } rest
    | "--smoke" :: rest -> go { o with smoke = true } rest
    | "--agree" :: a :: b :: rest -> go { o with agree = Some (a, b) } rest
    | a :: _ -> die ("unknown argument " ^ a)
  in
  go
    {
      workload = None;
      seed = 1;
      runs = 1;
      seconds = 20.0;
      trace = false;
      out = None;
      smoke = false;
      agree = None;
    }
    args

let run_one o workload =
  let seconds = if o.smoke then 0.0 else o.seconds in
  match List.find_opt (fun w -> w.Batch.name = workload) Batch.workloads with
  | Some w -> Batch.run w ~smoke:o.smoke ~seed:o.seed ~seconds ~trace:o.trace ~dir
  | None -> Churn.run ~smoke:o.smoke ~seed:o.seed ~seconds ~trace:o.trace ~dir

let single o workload =
  let r = run_one o workload in
  let shown = Spec.reported r in
  Printf.printf "# %s seed %d%s: %d attempted, %d failed%s\n" workload o.seed
    (if o.trace then " (traced)" else "")
    r.Spec.attempted r.Spec.failed
    (if r.Spec.correct then "" else " — OUTPUT NOT CORRECT");
  List.iter
    (fun (name, v) ->
      Printf.printf "%-40s %16.6g %s\n" name v (Option.get (Spec.unit_of name)))
    shown;
  Option.iter
    (fun out ->
      Spec.write_results out [ r ];
      if o.trace then Spans.write (out ^ ".trace.json"))
    o.out;
  print_endline
    (Spec.final_line ~trace:o.trace ~correct:r.Spec.correct ~attempted:r.Spec.attempted
       ~failed:r.Spec.failed shown)

(* each run in a fresh child process, so that peak heap and GC state
   belong to that run alone *)
let set o =
  let names = match o.workload with Some w -> [ w ] | None -> workloads in
  let results = ref [] and broken = ref 0 in
  for seed = o.seed to o.seed + o.runs - 1 do
    List.iter
      (fun w ->
        let part = Filename.concat dir (Printf.sprintf "%s-%d-%d.json" w seed (Unix.getpid ())) in
        let args =
          [ Sys.executable_name; "--workload"; w; "--seed"; string_of_int seed;
            "--seconds"; Printf.sprintf "%g" o.seconds; "--trace";
            (if o.trace then "1" else "0"); "--out"; part ]
          @ if o.smoke then [ "--smoke" ] else []
        in
        flush stdout;
        let pid =
          Unix.create_process Sys.executable_name (Array.of_list args) Unix.stdin
            Unix.stdout Unix.stderr
        in
        (match Unix.waitpid [] pid with
        | _, Unix.WEXITED 0 -> (
          match Spec.read_results part with
          | Ok rs -> results := !results @ rs
          | Error e ->
            prerr_endline e;
            incr broken)
        | _ ->
          Printf.eprintf "%s seed %d: the run did not finish\n%!" w seed;
          incr broken);
        (* a traced child's spans move next to the set's result file *)
        let spans = part ^ ".trace.json" in
        (match o.out with
        | Some out when Sys.file_exists spans ->
          Sys.rename spans (Printf.sprintf "%s.%s-%d.trace.json" out w seed)
        | _ -> if Sys.file_exists spans then Sys.remove spans);
        if Sys.file_exists part then Sys.remove part)
      names
  done;
  let rs = !results in
  Option.iter (fun out -> Spec.write_results out rs) o.out;
  let sum f = List.fold_left (fun a r -> a + f r) 0 rs in
  let attempted = sum (fun r -> r.Spec.attempted) + !broken in
  let failed = sum (fun r -> r.Spec.failed) + !broken in
  print_endline
    (Spec.final_line ~trace:o.trace
       ~correct:(!broken = 0 && List.for_all (fun r -> r.Spec.correct) rs)
       ~attempted:(max 1 attempted) ~failed [])

let () =
  let o = parse (List.tl (Array.to_list Sys.argv)) in
  match o.agree with
  | Some (a, b) -> exit (Agree.run ~bench:"BENCHMARK.json" a b)
  | None -> (
    (* the pool is pinned off: one domain, so allocation counts are exact
       and the shared cores are not oversubscribed *)
    Kecss_par.Pool.set_default_jobs 1;
    mkdir_p dir;
    match o.workload with
    | Some w when o.runs = 1 -> single o w
    | _ -> set o)
