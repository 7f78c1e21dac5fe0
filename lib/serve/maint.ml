open Kecss_graph
open Kecss_core
module Verify = Kecss_connectivity.Verify
module Edge_connectivity = Kecss_connectivity.Edge_connectivity
module Min_cut_enum = Kecss_connectivity.Min_cut_enum
module Certificate = Kecss_connectivity.Certificate

(* The resident solution is the canonical sparse certificate: the union
   of k successively edge-disjoint lex-minimum (weight, id) spanning
   forests of the live graph (Nagamochi–Ibaraki / Thurimella).  Its two
   properties carry the whole design:

   - λ(C) ≥ min(k, λ(G)) — the certificate is k-edge-connected exactly
     when the live graph is, with at most k(n-1) edges;
   - with the lex-min tie-break it is a {e unique function of the live
     edge set}, independent of update history — so the incrementally
     maintained solution provably equals a from-scratch rebuild
     byte-for-byte, which is what the determinism tests pin down.

   Updates cascade through at most k forest levels (cut rule on delete,
   cycle rule on insert); the replacement-edge query rides the
   {!Level_index} weight buckets in descending-level order so the first
   occupied bucket with an eligible crossing edge already contains the
   minimum. *)

type path_taken = Incremental | Repaired | Rebuilt

type outcome = {
  report : Verify.report;
  path : path_taken;
  degraded : bool; (* the live graph itself is below k *)
}

type stats = {
  deletes : int;
  inserts : int;
  replacements : int; (* delete cascades that found a replacement edge *)
  cascade_ops : int; (* per-forest-level operations across all cascades *)
  repairs : int; (* Cover re-augmentations (defensive path) *)
  rebuilds : int; (* from-scratch fallbacks *)
  degraded : int; (* updates that left the live graph below k *)
}

type t = {
  g : Graph.t;
  k : int;
  lev : int array; (* -1 dead, 0 live free, 1..k forest level *)
  live : Bitset.t;
  sol : Bitset.t;
  fadj : (int * int) list array array; (* fadj.(i-1).(v) = (edge, other) *)
  windex : Level_index.t; (* live edges bucketed by weight level *)
  (* forest-BFS scratch *)
  mutable stamp : int;
  seen : int array;
  parent_edge : int array;
  queue : int array;
  (* counters *)
  mutable c_deletes : int;
  mutable c_inserts : int;
  mutable c_replacements : int;
  mutable c_cascade_ops : int;
  mutable c_repairs : int;
  mutable c_rebuilds : int;
  mutable c_degraded : int;
}

let graph t = t.g
let k t = t.k
let live t = t.live
let solution t = t.sol

let stats t =
  {
    deletes = t.c_deletes;
    inserts = t.c_inserts;
    replacements = t.c_replacements;
    cascade_ops = t.c_cascade_ops;
    repairs = t.c_repairs;
    rebuilds = t.c_rebuilds;
    degraded = t.c_degraded;
  }

let key t e = (Graph.weight t.g e, e)

(* ----- forest adjacency ----- *)

let link t i e =
  let u, v = Graph.endpoints t.g e in
  t.lev.(e) <- i;
  t.fadj.(i - 1).(u) <- (e, v) :: t.fadj.(i - 1).(u);
  t.fadj.(i - 1).(v) <- (e, u) :: t.fadj.(i - 1).(v);
  Bitset.add t.sol e

let unlink_forest t i e =
  let u, v = Graph.endpoints t.g e in
  let drop l = List.filter (fun (e', _) -> e' <> e) l in
  t.fadj.(i - 1).(u) <- drop t.fadj.(i - 1).(u);
  t.fadj.(i - 1).(v) <- drop t.fadj.(i - 1).(v)

(* mark the F_i component of [src] with a fresh stamp *)
let mark t i src =
  t.stamp <- t.stamp + 1;
  let s = t.stamp in
  t.seen.(src) <- s;
  t.queue.(0) <- src;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let v = t.queue.(!head) in
    incr head;
    List.iter
      (fun (_, w) ->
        if t.seen.(w) <> s then begin
          t.seen.(w) <- s;
          t.queue.(!tail) <- w;
          incr tail
        end)
      t.fadj.(i - 1).(v)
  done

(* the unique F_i path between u and v as edge ids, [] when u and v are
   in different components *)
let path t i u v =
  if u = v then []
  else begin
    t.stamp <- t.stamp + 1;
    let s = t.stamp in
    t.seen.(u) <- s;
    t.parent_edge.(u) <- -1;
    t.queue.(0) <- u;
    let head = ref 0 and tail = ref 1 in
    let found = ref false in
    while (not !found) && !head < !tail do
      let x = t.queue.(!head) in
      incr head;
      List.iter
        (fun (e, w) ->
          if t.seen.(w) <> s then begin
            t.seen.(w) <- s;
            t.parent_edge.(w) <- e;
            if w = v then found := true
            else begin
              t.queue.(!tail) <- w;
              incr tail
            end
          end)
        t.fadj.(i - 1).(x)
    done;
    if not !found then []
    else begin
      let acc = ref [] in
      let cur = ref v in
      while !cur <> u do
        let e = t.parent_edge.(!cur) in
        acc := e :: !acc;
        cur := Graph.other_end t.g e !cur
      done;
      !acc
    end
  end

(* ----- canonical build ----- *)

let rebuild t =
  let n = Graph.n t.g in
  for i = 0 to t.k - 1 do
    Array.fill t.fadj.(i) 0 n []
  done;
  Array.iteri (fun e l -> if l > 0 then t.lev.(e) <- 0) t.lev;
  Bitset.clear t.sol;
  Array.iteri
    (fun e i -> if i > 0 then link t i e)
    (Certificate.levels ~mask:t.live t.g ~k:t.k)

(* ----- delete cascade (cut rule) ----- *)

(* F_i lost its tree edge (eu, ev): find the lex-min eligible edge
   crossing the resulting split and pull it up, cascading the hole it
   leaves in its own (deeper) forest. *)
let rec cascade_delete t i eu ev =
  t.c_cascade_ops <- t.c_cascade_ops + 1;
  mark t i eu;
  let s = t.stamp in
  assert (t.seen.(ev) <> s);
  (* eligible replacements live strictly below F_i: free edges or deeper
     forests. Weight buckets are disjoint descending ranges, so the
     first bucket holding an eligible crossing edge holds the minimum;
     the lex tie-break is resolved inside the bucket. *)
  let best = ref (-1) in
  (try
     List.iter
       (fun wl ->
         Level_index.iter_at t.windex wl (fun c ->
             if t.lev.(c) = 0 || t.lev.(c) > i then begin
               let cu, cv = Graph.endpoints t.g c in
               if (t.seen.(cu) = s) <> (t.seen.(cv) = s) then
                 if !best < 0 || key t c < key t !best then best := c
             end);
         if !best >= 0 then raise Exit)
       (Level_index.levels_desc t.windex)
   with Exit -> ());
  if !best < 0 then false (* < i edges ever crossed this cut: F_i stays split *)
  else begin
    let r = !best in
    let j = t.lev.(r) in
    link t i r;
    if j > 0 then begin
      unlink_forest t j r;
      let ru, rv = Graph.endpoints t.g r in
      ignore (cascade_delete t j ru rv)
    end;
    true
  end

(* ----- insert cascade (cycle rule) ----- *)

let rec cascade_insert t i c =
  if i > t.k then begin
    t.lev.(c) <- 0;
    Bitset.remove t.sol c
  end
  else begin
    t.c_cascade_ops <- t.c_cascade_ops + 1;
    let cu, cv = Graph.endpoints t.g c in
    match path t i cu cv with
    | [] -> link t i c
    | p ->
      (* cycle rule: the lex-max edge on the cycle is the one that does
         not belong to the lex-min forest *)
      let f =
        List.fold_left (fun acc e -> if key t e > key t acc then e else acc)
          (List.hd p) p
      in
      if key t c < key t f then begin
        unlink_forest t i f;
        link t i c;
        cascade_insert t (i + 1) f
      end
      else cascade_insert t (i + 1) c
  end

(* ----- defensive repair (Cover re-augmentation) ----- *)

(* Only reachable if the certificate invariant is ever breached (the
   theory says it is not): the solution verifies below k while the live
   graph is k-connected. Rather than jumping straight to a rebuild,
   re-augment: repeatedly find a minimum-cut witness of the current
   solution and cover all witnesses seen so far with the cheapest
   crossing live edges — warm-starting the greedy engine with the
   previous rounds' picks so each round pays only for the new cut. *)
let repair t =
  let report = Verify.check_kecss t.g t.sol ~k:t.k in
  if not (report.Verify.spanning && report.Verify.connectivity >= 1) then false
  else begin
    (* the candidates are the live edges outside the solution as it
       stands now *)
    let excluded = Graph.all_edges_mask t.g in
    Bitset.diff_into excluded t.live;
    Bitset.union_into excluded t.sol;
    let cuts = ref [] in
    let chosen = ref None in
    let rec go rounds_left =
      if rounds_left = 0 then false
      else begin
        let lam, side, edge_ids = Edge_connectivity.global_min_cut ~mask:t.sol t.g in
        if lam >= t.k then true
        else begin
          cuts := { Min_cut_enum.side; edge_ids } :: !cuts;
          let problem =
            Augk.cut_problem t.g ~h:excluded (Array.of_list (List.rev !cuts))
          in
          match Cover.greedy ?initial:!chosen problem with
          | exception Invalid_argument _ ->
            false (* some cut has no crossing live edge left *)
          | picks ->
            chosen := Some picks;
            Bitset.iter (fun e -> Bitset.add t.sol e) picks;
            go (rounds_left - 1)
        end
      end
    in
    go (t.k + 2)
  end

(* ----- lifecycle ----- *)

let create ?live:live0 g ~k =
  if k < 1 then invalid_arg "Maint.create: k < 1";
  let n = Graph.n g and m = Graph.m g in
  if n < 1 then invalid_arg "Maint.create: empty graph";
  let live =
    match live0 with
    | Some l -> Bitset.copy l
    | None -> Graph.all_edges_mask g
  in
  let lev = Array.make (max 1 m) (-1) in
  Bitset.iter (fun e -> lev.(e) <- 0) live;
  let windex =
    Level_index.create ~universe:(max 1 m) ~level:(fun e ->
        if lev.(e) < 0 then Cost.useless
        else Cost.level ~covered:1 ~weight:(Graph.weight g e))
  in
  for e = 0 to m - 1 do
    Level_index.add windex e
  done;
  let t =
    {
      g;
      k;
      lev;
      live;
      sol = Graph.no_edges_mask g;
      fadj = Array.init k (fun _ -> Array.make n []);
      windex;
      stamp = 0;
      seen = Array.make n 0;
      parent_edge = Array.make n (-1);
      queue = Array.make n 0;
      c_deletes = 0;
      c_inserts = 0;
      c_replacements = 0;
      c_cascade_ops = 0;
      c_repairs = 0;
      c_rebuilds = 0;
      c_degraded = 0;
    }
  in
  rebuild t;
  t

let verify ?cap t = Verify.check_kecss ?cap t.g t.sol ~k:t.k

(* verification gate: every mutation ends here. A failing solution on a
   k-connected live graph is an invariant breach — repair, then fall
   back to a rebuild; on a degraded live graph the certificate already
   carries λ(live), which is the best any subgraph can do. *)
let gate t =
  let report = verify t in
  if report.Verify.ok then { report; path = Incremental; degraded = false }
  else if not (Edge_connectivity.is_k_edge_connected ~mask:t.live t.g t.k)
  then begin
    t.c_degraded <- t.c_degraded + 1;
    { report; path = Incremental; degraded = true }
  end
  else if repair t then begin
    let report = verify t in
    if report.Verify.ok then begin
      t.c_repairs <- t.c_repairs + 1;
      { report; path = Repaired; degraded = false }
    end
    else begin
      t.c_rebuilds <- t.c_rebuilds + 1;
      rebuild t;
      { report = verify t; path = Rebuilt; degraded = false }
    end
  end
  else begin
    t.c_rebuilds <- t.c_rebuilds + 1;
    rebuild t;
    { report = verify t; path = Rebuilt; degraded = false }
  end

let apply_delete t e =
  let i = t.lev.(e) in
  Bitset.remove t.live e;
  t.lev.(e) <- -1;
  Bitset.remove t.sol e;
  Level_index.touch t.windex e;
  if i >= 1 then begin
    unlink_forest t i e;
    let u, v = Graph.endpoints t.g e in
    if cascade_delete t i u v then
      t.c_replacements <- t.c_replacements + 1
  end

let apply_insert t e =
  Bitset.add t.live e;
  t.lev.(e) <- 0;
  Level_index.touch t.windex e;
  cascade_insert t 1 e

let delete ?(gate_check = true) t e =
  if e < 0 || e >= Graph.m t.g then Error (Printf.sprintf "unknown edge %d" e)
  else if t.lev.(e) < 0 then Error (Printf.sprintf "edge %d is not live" e)
  else begin
    t.c_deletes <- t.c_deletes + 1;
    apply_delete t e;
    if gate_check then Ok (Some (gate t)) else Ok None
  end

let insert ?(gate_check = true) t e =
  if e < 0 || e >= Graph.m t.g then Error (Printf.sprintf "unknown edge %d" e)
  else if t.lev.(e) >= 0 then Error (Printf.sprintf "edge %d is already live" e)
  else begin
    t.c_inserts <- t.c_inserts + 1;
    apply_insert t e;
    if gate_check then Ok (Some (gate t)) else Ok None
  end

let force_rebuild t =
  t.c_rebuilds <- t.c_rebuilds + 1;
  rebuild t
