open Kecss_graph

type report = {
  spanning : bool;
  connectivity : int;
  required : int;
  weight : int;
  edge_count : int;
  ok : bool;
}

(* min(λ, upper) of a spanning subgraph, from its pass [s]: λ ≤ δ, so
   the exact label census answers bounds 3 and 4 of a bridgeless one,
   and everything else is the bridges or capped max-flows *)
let connected_lambda ~mask g (s : Dfs.summary) ~upper =
  let upper = min upper s.Dfs.min_degree in
  if upper >= 3 && upper <= 4 && s.Dfs.bridges = 0 then
    (* the census is exact whatever the labels draw, so any seed does *)
    Min_cut_enum.lambda_upto ~mask ~rng:(Rng.create ~seed:1) g ~upper
  else Edge_connectivity.connected_lambda ~mask ~upper g s

let lambda_upto ~mask g ~upper =
  let s = Dfs.summary ~mask g in
  if s.Dfs.spanning then connected_lambda ~mask g s ~upper else 0

let make_report ?cap g mask ~k ~weight_mask =
  let s = Dfs.summary ~mask g in
  let spanning = s.Dfs.spanning in
  let upper = match cap with None -> k + 1 | Some c -> max c k in
  let connectivity = if spanning then connected_lambda ~mask g s ~upper else 0 in
  {
    spanning;
    connectivity;
    required = k;
    weight = Graph.mask_weight g weight_mask;
    edge_count = Bitset.cardinal mask;
    ok = spanning && connectivity >= k;
  }

let check_kecss ?cap g sol ~k = make_report ?cap g sol ~k ~weight_mask:sol

let check_augmentation ?cap g ~h ~aug ~k =
  let union = Bitset.copy h in
  Bitset.union_into union aug;
  make_report ?cap g union ~k ~weight_mask:aug

let pp_report ppf r =
  Format.fprintf ppf
    "@[<h>%s: spanning=%b λ≥%d (need %d), %d edges, weight %d@]"
    (if r.ok then "OK" else "FAIL")
    r.spanning r.connectivity r.required r.edge_count r.weight
