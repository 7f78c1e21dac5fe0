(* Smoke test of the end-to-end benchmark: every workload at toy size
   (n <= 64, two instances or graphs, two rounds, 50 serve requests),
   traced, run twice by the real executable. It checks that

   - the metrics the harness declares are the ones BENCHMARK.json
     declares, and every reported metric carries its declared unit;
   - deterministic metrics repeat exactly across the two invocations and
     allocation per operation within 1%;
   - the sum identities (load + solve + verify = operation, phase spans
     within the solve, stage allocations = operation allocation) hold
     within 1%;
   - every operation verified (which for serve includes the resident
     solution equalling a from-scratch certificate of the final live
     set). *)

open Kecss_e2e
module Json = Kecss_obs.Json

let exe = "../kecss_bench.exe"
let bench = "../../BENCHMARK.json"

let failures = ref 0

let expect cond fmt =
  Printf.ksprintf
    (fun msg ->
      if not cond then begin
        incr failures;
        prerr_endline ("FAIL: " ^ msg)
      end)
    fmt

let invoke out =
  let log = Unix.openfile (out ^ ".log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid =
    Unix.create_process exe
      [| exe; "--smoke"; "--trace"; "--seed"; "3"; "--out"; out |]
      Unix.stdin log Unix.stderr
  in
  let _, status = Unix.waitpid [] pid in
  Unix.close log;
  expect (status = Unix.WEXITED 0) "%s did not exit cleanly" exe;
  match Spec.read_results out with
  | Ok runs -> runs
  | Error e -> failwith e

let declared key =
  match Json.parse (Spec.read_file bench) with
  | Error e -> failwith e
  | Ok doc -> (
    match Json.member key doc with
    | Some (Json.List ms) ->
      List.map
        (fun m ->
          let str k = Option.get (Option.bind (Json.member k m) Json.to_string_opt) in
          (str "name", str "unit"))
        ms
    | _ -> failwith ("BENCHMARK.json has no " ^ key))

(* the units each run in a result file carries, straight from the JSON *)
let units out =
  match Json.parse (Spec.read_file out) with
  | Error e -> failwith e
  | Ok doc -> (
    match Json.member "runs" doc with
    | Some (Json.List runs) ->
      List.concat_map
        (fun r ->
          match Json.member "metrics" r with
          | Some (Json.Obj ms) ->
            List.map
              (fun (name, m) ->
                (name, Option.bind (Json.member "unit" m) Json.to_string_opt))
              ms
          | _ -> [])
        runs
    | _ -> [])

let () =
  let e2e = declared "end_to_end" and layers = declared "per_layer" in
  expect (e2e = Spec.end_to_end) "end-to-end metrics differ from BENCHMARK.json";
  expect (layers = Spec.per_layer) "per-layer metrics differ from BENCHMARK.json";
  let a = invoke "smoke-a.json" and b = invoke "smoke-b.json" in
  expect (List.length a = 5) "expected 5 workloads, got %d" (List.length a);
  List.iter
    (fun (name, unit) ->
      expect
        (unit <> None && unit = List.assoc_opt name (e2e @ layers))
        "metric %s (%s) is not declared with that unit" name
        (Option.value unit ~default:"no unit"))
    (units "smoke-a.json");
  List.iter2
    (fun (ra : Spec.run) (rb : Spec.run) ->
      let w = ra.Spec.workload in
      let get (r : Spec.run) name = List.assoc name r.Spec.metrics in
      expect (ra.Spec.correct && ra.Spec.failed = 0 && rb.Spec.failed = 0)
        "%s: %d and %d operations failed" w ra.Spec.failed rb.Spec.failed;
      List.iter
        (fun name ->
          expect (get ra name = get rb name) "%s: %s differs between invocations (%g vs %g)" w
            name (get ra name) (get rb name))
        Spec.deterministic;
      let wa = get ra "alloc_words_per_op" and wb = get rb "alloc_words_per_op" in
      expect (Float.abs (wa -. wb) <= 0.01 *. wa) "%s: alloc_words_per_op %g vs %g" w wa wb;
      expect (get ra "obs.identity_err" < 0.01) "%s: sum identity off by %g" w
        (get ra "obs.identity_err"))
    a b;
  if !failures > 0 then exit 1
