(* [--agree A.json B.json]: compare two result sets metric by metric with
   the bounds BENCHMARK.json declares. Each workload and end-to-end metric
   gets one row: both sets' medians and quartiles over their seeds, and
   the per-seed ratios B/A over the seeds both sets ran. Pairing by seed
   takes the differences between the seeds' graphs out of the comparison,
   so the spread of those ratios is the noise of the runs themselves.

   A metric disagrees when B is worse than A by more than its bound, by
   the median per-seed ratio or by the sets' medians. It is unresolved
   when a spread is wider than its bound: the ratios' (interquartile range
   over median) or either set's across its seeds. Set-up time is held to
   its median only. Deterministic metrics must be identical for every
   seed both sets ran. Any of these makes the exit code 1. *)

module Json = Kecss_obs.Json

type decl = { name : string; lower_is_better : bool; bound : float }

let decls path =
  let fail msg = failwith (Printf.sprintf "%s: %s" path msg) in
  match Json.parse (Spec.read_file path) with
  | Error e -> fail e
  | Ok doc -> (
    match Json.member "end_to_end" doc with
    | Some (Json.List ms) ->
      List.map
        (fun m ->
          let str key = Option.bind (Json.member key m) Json.to_string_opt in
          match (str "name", str "better", Option.bind (Json.member "bound" m) Json.to_float_opt) with
          | Some name, Some better, Some bound ->
            { name; lower_is_better = better = "lower"; bound }
          | _ -> fail "an end_to_end entry lacks name/better/bound")
        ms
    | _ -> fail "no end_to_end list")

let load path =
  match Spec.read_results path with Ok runs -> runs | Error e -> failwith e

(* (seed, value) of every untraced run of [workload] *)
let by_seed runs ~workload name =
  List.filter_map
    (fun (r : Spec.run) ->
      if r.Spec.workload = workload && not r.Spec.trace then
        Option.map (fun v -> (r.Spec.seed, v)) (List.assoc_opt name r.Spec.metrics)
      else None)
    runs

let spread xs =
  let q1, _, q3 = Stats.quartiles xs in
  Stats.ratio (q3 -. q1) (Stats.median xs)

let run ~bench a_path b_path =
  let decls = decls bench in
  let a = load a_path and b = load b_path in
  let workloads =
    List.fold_left
      (fun acc (r : Spec.run) ->
        if List.mem r.Spec.workload acc then acc else acc @ [ r.Spec.workload ])
      [] (a @ b)
  in
  let bad = ref 0 in
  Printf.printf
    "%-17s %-19s %3s %12s %12s %12s %7s  %3s %12s %12s %12s %7s  %5s %8s %8s %7s %6s  %s\n"
    "workload" "metric" "nA" "A median" "A q1" "A q3" "spread" "nB" "B median" "B q1" "B q3"
    "spread" "pairs" "change" "paired" "noise" "bound" "verdict";
  List.iter
    (fun workload ->
      List.iter
        (fun d ->
          let sa = by_seed a ~workload d.name and sb = by_seed b ~workload d.name in
          let ratios =
            List.filter_map
              (fun (seed, x) -> Option.map (fun y -> Stats.ratio y x) (List.assoc_opt seed sb))
              sa
          in
          if ratios = [] then begin
            incr bad;
            Printf.printf "%-17s %-19s no seed with this metric in both sets\n" workload d.name
          end
          else begin
            let va = List.map snd sa and vb = List.map snd sb in
            let q1a, ma, q3a = Stats.quartiles va and q1b, mb, q3b = Stats.quartiles vb in
            let change = Stats.ratio (mb -. ma) ma in
            let paired = Stats.median ratios -. 1.0 in
            let worse x = if d.lower_is_better then x else -.x in
            let noise = spread ratios in
            let unresolved =
              d.name <> "setup_s"
              && (noise > d.bound || spread va > d.bound || spread vb > d.bound)
            in
            let verdict =
              if Float.max (worse change) (worse paired) > d.bound then "DISAGREE (worse)"
              else if unresolved then "UNRESOLVED"
              else "agree"
            in
            if verdict <> "agree" then incr bad;
            Printf.printf
              "%-17s %-19s %3d %12.6g %12.6g %12.6g %6.2f%%  %3d %12.6g %12.6g %12.6g %6.2f%%  %5d %+7.2f%% %+7.2f%% %6.2f%% %5.1f%%  %s\n"
              workload d.name (List.length va) ma q1a q3a
              (100.0 *. spread va) (List.length vb) mb q1b q3b
              (100.0 *. spread vb) (List.length ratios) (100.0 *. change) (100.0 *. paired)
              (100.0 *. noise) (100.0 *. d.bound) verdict
          end)
        decls)
    workloads;
  (* deterministic metrics, seed by seed *)
  let mismatches = ref 0 and compared = ref 0 in
  List.iter
    (fun (ra : Spec.run) ->
      List.iter
        (fun (rb : Spec.run) ->
          if
            ra.Spec.workload = rb.Spec.workload
            && ra.Spec.seed = rb.Spec.seed && ra.Spec.trace = rb.Spec.trace
          then
            List.iter
              (fun name ->
                match
                  (List.assoc_opt name ra.Spec.metrics, List.assoc_opt name rb.Spec.metrics)
                with
                | Some x, Some y ->
                  incr compared;
                  if x <> y then begin
                    incr mismatches;
                    Printf.printf "%-17s seed %d %s: %.12g vs %.12g (must be identical)\n"
                      ra.Spec.workload ra.Spec.seed name x y
                  end
                | _ -> ())
              Spec.deterministic)
        b)
    a;
  Printf.printf "deterministic metrics: %d compared, %d differ\n" !compared !mismatches;
  bad := !bad + !mismatches;
  let failed = List.filter (fun (r : Spec.run) -> not r.Spec.correct) (a @ b) in
  if failed <> [] then
    Printf.printf "%d run(s) did not verify\n" (List.length failed);
  if !bad = 0 && failed = [] then begin
    print_endline "the two sets agree";
    0
  end
  else 1
