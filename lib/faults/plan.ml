type t = {
  drop : float;
  delay_p : float;
  delay_max : int;
  duplicate : float;
  crashes : (int * int) list;
  cuts : (int * int) list;
  ins : (int * int) list;
  seed : int;
}

let default_seed = 1

let empty =
  {
    drop = 0.0;
    delay_p = 0.0;
    delay_max = 1;
    duplicate = 0.0;
    crashes = [];
    cuts = [];
    ins = [];
    seed = default_seed;
  }

let is_empty t =
  t.drop = 0.0 && t.delay_p = 0.0 && t.duplicate = 0.0 && t.crashes = []
  && t.cuts = [] && t.ins = []

let check_prob what p =
  if not (p >= 0.0 && p <= 1.0) then
    invalid_arg (Printf.sprintf "Plan.%s: probability %g outside [0, 1]" what p)

let drop p =
  check_prob "drop" p;
  { empty with drop = p }

let delay ~p ~max =
  check_prob "delay" p;
  if max < 1 then invalid_arg "Plan.delay: max < 1";
  { empty with delay_p = p; delay_max = max }

let duplicate p =
  check_prob "duplicate" p;
  { empty with duplicate = p }

let crash ~vertex ~round =
  if vertex < 0 || round < 0 then invalid_arg "Plan.crash: negative";
  { empty with crashes = [ (vertex, round) ] }

let cut ~edge ~round =
  if edge < 0 || round < 0 then invalid_arg "Plan.cut: negative";
  { empty with cuts = [ (edge, round) ] }

let insert ~edge ~round =
  if edge < 0 || round < 0 then invalid_arg "Plan.insert: negative";
  { empty with ins = [ (edge, round) ] }

let with_seed seed t = { t with seed }

type event = Crash of int | Cut of int | Insert of int

(* a stable sort by round keeps the kinds' order, and spec order *)
let schedule t =
  let at kind = List.map (fun (id, r) -> (r, kind id)) in
  List.stable_sort
    (fun (r1, _) (r2, _) -> compare r1 r2)
    (at (fun v -> Crash v) t.crashes
    @ at (fun e -> Cut e) t.cuts
    @ at (fun e -> Insert e) t.ins)

(* independent union: a message survives both loss processes; the zero
   cases short-circuit so composing with [empty] is exact, not a float
   rounding of [1 - (1 - p)] *)
let join_prob a b =
  if a = 0.0 then b
  else if b = 0.0 then a
  else 1.0 -. ((1.0 -. a) *. (1.0 -. b))

let compose a b =
  {
    drop = join_prob a.drop b.drop;
    delay_p = join_prob a.delay_p b.delay_p;
    delay_max = max a.delay_max b.delay_max;
    duplicate = join_prob a.duplicate b.duplicate;
    crashes = a.crashes @ b.crashes;
    cuts = a.cuts @ b.cuts;
    ins = a.ins @ b.ins;
    seed = (if a.seed <> default_seed then a.seed else b.seed);
  }

let ( ++ ) = compose

(* ------------------------------------------------------------------ *)
(* spec syntax                                                         *)
(* ------------------------------------------------------------------ *)

let parse_prob key v =
  match float_of_string_opt v with
  | Some p when p >= 0.0 && p <= 1.0 -> Ok p
  | _ -> Error (Printf.sprintf "%s: %S is not a probability in [0, 1]" key v)

let parse_nat key v =
  match int_of_string_opt v with
  | Some n when n >= 0 -> Ok n
  | _ -> Error (Printf.sprintf "%s: %S is not a non-negative integer" key v)

(* "v17@r40" / "e3@r0": a prefixed id at a prefixed round *)
let parse_at key ~id_prefix v =
  match String.index_opt v '@' with
  | None -> Error (Printf.sprintf "%s: %S lacks the @r<round> part" key v)
  | Some i ->
    let id_part = String.sub v 0 i in
    let round_part = String.sub v (i + 1) (String.length v - i - 1) in
    let strip prefix s =
      if String.length s > 1 && s.[0] = prefix then
        Some (String.sub s 1 (String.length s - 1))
      else None
    in
    (match (strip id_prefix id_part, strip 'r' round_part) with
    | Some id, Some r -> (
      match (int_of_string_opt id, int_of_string_opt r) with
      | Some id, Some r when id >= 0 && r >= 0 -> Ok (id, r)
      | _ -> Error (Printf.sprintf "%s: %S has non-numeric id or round" key v))
    | _ ->
      Error
        (Printf.sprintf "%s: expected %c<id>@r<round>, got %S" key id_prefix v))

let ( let* ) = Result.bind

let parse_entry acc entry =
  match String.index_opt entry '=' with
  | None -> Error (Printf.sprintf "entry %S is not key=value" entry)
  | Some i ->
    let key = String.sub entry 0 i in
    let v = String.sub entry (i + 1) (String.length entry - i - 1) in
    (match key with
    | "drop" ->
      let* p = parse_prob key v in
      Ok (compose acc (drop p))
    | "delay" ->
      let p_part, max_part =
        match String.index_opt v ':' with
        | None -> (v, "1")
        | Some j ->
          (String.sub v 0 j, String.sub v (j + 1) (String.length v - j - 1))
      in
      let* p = parse_prob key p_part in
      let* m = parse_nat key max_part in
      if m < 1 then Error "delay: max must be >= 1"
      else Ok (compose acc (delay ~p ~max:m))
    | "dup" ->
      let* p = parse_prob key v in
      Ok (compose acc (duplicate p))
    | "crash" ->
      let* vertex, round = parse_at key ~id_prefix:'v' v in
      Ok (compose acc (crash ~vertex ~round))
    | "cut" ->
      let* edge, round = parse_at key ~id_prefix:'e' v in
      Ok (compose acc (cut ~edge ~round))
    | "ins" ->
      let* edge, round = parse_at key ~id_prefix:'e' v in
      Ok (compose acc (insert ~edge ~round))
    | "seed" ->
      let* s = parse_nat key v in
      Ok { acc with seed = s }
    | k -> Error (Printf.sprintf "unknown fault key %S" k))

let of_spec s =
  let entries =
    String.split_on_char ',' s
    |> List.map String.trim
    |> List.filter (fun e -> e <> "")
  in
  if entries = [] then Error "empty fault spec"
  else
    List.fold_left
      (fun acc entry ->
        let* acc = acc in
        parse_entry acc entry)
      (Ok empty) entries

let to_spec t =
  let b = Buffer.create 64 in
  let sep () = if Buffer.length b > 0 then Buffer.add_char b ',' in
  let fl v =
    (* shortest float round-tripping spec form: %g never loses the
       probabilities anyone writes by hand *)
    Printf.sprintf "%g" v
  in
  if t.drop > 0.0 then begin
    sep ();
    Buffer.add_string b ("drop=" ^ fl t.drop)
  end;
  if t.delay_p > 0.0 then begin
    sep ();
    Buffer.add_string b (Printf.sprintf "delay=%s:%d" (fl t.delay_p) t.delay_max)
  end;
  if t.duplicate > 0.0 then begin
    sep ();
    Buffer.add_string b ("dup=" ^ fl t.duplicate)
  end;
  List.iter
    (fun (v, r) ->
      sep ();
      Buffer.add_string b (Printf.sprintf "crash=v%d@r%d" v r))
    t.crashes;
  List.iter
    (fun (e, r) ->
      sep ();
      Buffer.add_string b (Printf.sprintf "cut=e%d@r%d" e r))
    t.cuts;
  List.iter
    (fun (e, r) ->
      sep ();
      Buffer.add_string b (Printf.sprintf "ins=e%d@r%d" e r))
    t.ins;
  sep ();
  Buffer.add_string b (Printf.sprintf "seed=%d" t.seed);
  Buffer.contents b
