open Kecss_graph

let seed = 20180522

let rng_for tag n = Rng.create ~seed:(seed lxor (tag * 7919) lxor (n * 104729))

let weighted_circulant ~n =
  let rng = rng_for 1 n in
  Weights.uniform rng ~lo:1 ~hi:(n * n) (Gen.circulant n [ 1; 2 ])

let weighted_random ~n ~k =
  let rng = rng_for (2 + k) n in
  Weights.uniform rng ~lo:1 ~hi:(n * n)
    (Gen.random_k_connected rng n k ~extra:(2 * n))

let unweighted_low_d ~n =
  let rng = rng_for 8 n in
  Gen.random_k_connected rng n 3 ~extra:(3 * n)

let spread_random ~n ~ratio =
  let rng = rng_for (9 + ratio) n in
  Weights.spread rng ~ratio (Gen.random_k_connected rng n 2 ~extra:(2 * n))

let tiny_exact ~seed:s =
  let rng = Rng.create ~seed:(seed + s) in
  Weights.uniform rng ~lo:1 ~hi:20 (Gen.random_k_connected rng 8 3 ~extra:4)

let decomposition_shapes ~n =
  let rng = rng_for 11 n in
  let w g = Weights.uniform (Rng.split rng) ~lo:1 ~hi:100 g in
  [
    ("path", w (Gen.path n));
    ("caterpillar", w (Gen.caterpillar (max 1 (n / 3)) 2));
    ("lollipop", w (Gen.lollipop (max 2 (n / 4)) (n - (max 2 (n / 4)))));
    ("random-tree", w (Gen.random_tree (Rng.split rng) n));
    ("random-graph", w (Gen.random_connected (Rng.split rng) n (4.0 /. float_of_int n)));
  ]
