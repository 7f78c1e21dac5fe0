open Kecss_graph
open Kecss_obs
module Verify = Kecss_connectivity.Verify
module Resilience = Kecss_faults.Resilience
module Plan = Kecss_faults.Plan

(* The resident solver service: a {!Maint.t} plus request dispatch over
   the length-prefixed JSON wire protocol (schema [kecss-serve/1]).

   Determinism contract: with [timing] off (the default) every response
   is a pure function of the loaded graph, the request stream and the
   request parameters — wall-clock latency is measured into {!Prof.Hist}
   histograms but only reported when a [stats] request asks for timing,
   so seeded session transcripts are byte-identical at any pool size
   (the CI smoke cmp's jobs=1 vs jobs=4 transcripts). *)

let schema_version = "kecss-serve/1"

let request_kinds =
  [ "solve"; "verify"; "resilience"; "audit"; "stats"; "update"; "churn";
    "shutdown" ]

type t = {
  maint : Maint.t;
  default_seed : int;
  served : (string, int) Hashtbl.t; (* per-kind request counts *)
  hist : (string * Prof.Hist.t) list; (* per-kind wall-clock latency *)
  mutable stopping : bool; (* a shutdown request was handled *)
}

let create ?(seed = 1) ?live g ~k =
  {
    maint = Maint.create ?live g ~k;
    default_seed = seed;
    served = Hashtbl.create 8;
    hist = List.map (fun kind -> (kind, Prof.Hist.create ())) request_kinds;
    stopping = false;
  }

let maint t = t.maint
let latencies t = t.hist
let stopping t = t.stopping

(* ----- response plumbing ----- *)

let ok_fields ~req ~id fields =
  Json.Obj
    (("schema", Json.Str schema_version)
     :: ("req", Json.Str req)
     :: (match id with None -> [] | Some id -> [ ("id", id) ])
    @ [ ("ok", Json.Bool true) ]
    @ fields)

let error_response ?req ?id msg =
  Json.Obj
    (("schema", Json.Str schema_version)
     :: (match req with None -> [] | Some r -> [ ("req", Json.Str r) ])
    @ (match id with None -> [] | Some id -> [ ("id", id) ])
    @ [ ("ok", Json.Bool false); ("error", Json.Str msg) ])

let report_fields (r : Verify.report) =
  [
    ("verified", Json.Bool r.Verify.ok);
    ("spanning", Json.Bool r.Verify.spanning);
    ("lambda", Json.Int r.Verify.connectivity);
    ("required", Json.Int r.Verify.required);
    ("weight", Json.Int r.Verify.weight);
    ("edge_count", Json.Int r.Verify.edge_count);
  ]

let path_name = function
  | Maint.Incremental -> "incremental"
  | Maint.Repaired -> "repaired"
  | Maint.Rebuilt -> "rebuilt"

let int_param j key ~default =
  match Option.bind (Json.member key j) Json.to_int_opt with
  | Some v -> v
  | None -> default

let bool_param j key ~default =
  match Json.member key j with Some (Json.Bool b) -> b | _ -> default

let str_param j key ~default =
  match Option.bind (Json.member key j) Json.to_string_opt with
  | Some v -> v
  | None -> default

(* ----- live subgraph materialization (for solve/audit) ----- *)

(* solvers take a whole Graph.t, so the live edge set is materialized
   with fresh ids; [back] maps them to universe ids for responses *)
let live_graph t =
  let g = Maint.graph t.maint in
  let ids = List.rev (Bitset.fold (fun e acc -> e :: acc) (Maint.live t.maint) []) in
  let spec =
    List.map
      (fun e ->
        let u, v = Graph.endpoints g e in
        (u, v, Graph.weight g e))
      ids
  in
  (Graph.make ~n:(Graph.n g) spec, Array.of_list ids)

(* ----- handlers ----- *)

let handle_solve t req =
  let k = int_param req "k" ~default:(Maint.k t.maint) in
  let seed = int_param req "seed" ~default:t.default_seed in
  let algo = str_param req "algo" ~default:"kecss" in
  let want_edges = bool_param req "edges" ~default:false in
  let sub, back = live_graph t in
  let solve_sub () =
    match algo with
    | "kecss" ->
      let r = Kecss_core.Kecss.solve ~seed sub ~k in
      (r.Kecss_core.Kecss.solution, Some r.Kecss_core.Kecss.rounds)
    | "thurimella" ->
      let r =
        Kecss_baselines.Thurimella.sparse_certificate (Rng.create ~seed) sub ~k
      in
      ( r.Kecss_baselines.Thurimella.solution,
        Some r.Kecss_baselines.Thurimella.rounds )
    | "greedy" -> (Kecss_baselines.Greedy.kecss sub ~k, None)
    | "certificate" ->
      let m = Maint.create sub ~k in
      (Maint.solution m, None)
    | a -> failwith ("unknown algorithm: " ^ a)
  in
  let sol, rounds = solve_sub () in
  let report = Verify.check_kecss sub sol ~k in
  let universe_edges =
    List.rev (Bitset.fold (fun e acc -> back.(e) :: acc) sol [])
  in
  ok_fields ~req:"solve" ~id:None
    ([
       ("algo", Json.Str algo);
       ("k", Json.Int k);
       ("seed", Json.Int seed);
       ("live_edges", Json.Int (Bitset.cardinal (Maint.live t.maint)));
     ]
    @ report_fields report
    @ (match rounds with None -> [] | Some r -> [ ("rounds", Json.Int r) ])
    @
    if want_edges then
      [ ("edges", Json.List (List.map (fun e -> Json.Int e) universe_edges)) ]
    else [])

let handle_verify t req =
  let cap =
    match Option.bind (Json.member "cap" req) Json.to_int_opt with
    | Some c -> Some c
    | None -> None
  in
  let report = Maint.verify ?cap t.maint in
  ok_fields ~req:"verify" ~id:None (report_fields report)

(* Requests run on the sequential accept loop, and every update is
   verify-gated, so one request may not ask for more than this many
   resilience trials, churn updates or batch items: a larger count would
   stall every other client. *)
let request_budget = 1024

let handle_resilience t req =
  let trials = int_param req "trials" ~default:64 in
  if trials < 0 || trials > request_budget then
    invalid_arg
      (Printf.sprintf "resilience: trials must be in [0, %d], got %d"
         request_budget trials);
  let seed = int_param req "seed" ~default:t.default_seed in
  let g = Maint.graph t.maint in
  let rep =
    Resilience.attack ~trials ~rng:(Rng.create ~seed) g
      ~h:(Maint.solution t.maint) ~k:(Maint.k t.maint)
  in
  ok_fields ~req:"resilience" ~id:None
    [
      ("survived", Json.Bool (Resilience.ok rep));
      ("report", Resilience.to_json rep);
    ]

let handle_audit t _req =
  let k = Maint.k t.maint in
  let g = Maint.graph t.maint in
  let report = Maint.verify t.maint in
  let sub, _ = live_graph t in
  let lower =
    match Kecss_baselines.Lower_bound.best sub ~k with
    | lb -> Some lb
    | exception Invalid_argument _ -> None (* live graph below min degree k *)
  in
  let s = Maint.stats t.maint in
  ok_fields ~req:"audit" ~id:None
    (report_fields report
    @ [
        ("size_bound", Json.Int (k * (Graph.n g - 1)));
        ("live_edges", Json.Int (Bitset.cardinal (Maint.live t.maint)));
      ]
    @ (match lower with
      | None -> [ ("lower_bound", Json.Null); ("ratio", Json.Null) ]
      | Some lb ->
        [
          ("lower_bound", Json.Int lb);
          ( "ratio",
            if lb > 0 then
              Json.Float (float_of_int report.Verify.weight /. float_of_int lb)
            else Json.Null );
        ])
    @ [
        ( "maintenance",
          Json.Obj
            [
              ("deletes", Json.Int s.Maint.deletes);
              ("inserts", Json.Int s.Maint.inserts);
              ("replacements", Json.Int s.Maint.replacements);
              ("cascade_ops", Json.Int s.Maint.cascade_ops);
              ("repairs", Json.Int s.Maint.repairs);
              ("rebuilds", Json.Int s.Maint.rebuilds);
              ("degraded", Json.Int s.Maint.degraded);
            ] );
      ])

let handle_stats t req =
  let timing = bool_param req "timing" ~default:false in
  let s = Maint.stats t.maint in
  let g = Maint.graph t.maint in
  let served =
    List.filter_map
      (fun kind ->
        match Hashtbl.find_opt t.served kind with
        | Some n when n > 0 -> Some (kind, Json.Int n)
        | _ -> None)
      request_kinds
  in
  ok_fields ~req:"stats" ~id:None
    ([
       ("n", Json.Int (Graph.n g));
       ("m", Json.Int (Graph.m g));
       ("k", Json.Int (Maint.k t.maint));
       ("live_edges", Json.Int (Bitset.cardinal (Maint.live t.maint)));
       ("solution_edges", Json.Int (Bitset.cardinal (Maint.solution t.maint)));
       ( "solution_weight",
         Json.Int (Graph.mask_weight g (Maint.solution t.maint)) );
       ("deletes", Json.Int s.Maint.deletes);
       ("inserts", Json.Int s.Maint.inserts);
       ("replacements", Json.Int s.Maint.replacements);
       ("cascade_ops", Json.Int s.Maint.cascade_ops);
       ("repairs", Json.Int s.Maint.repairs);
       ("rebuilds", Json.Int s.Maint.rebuilds);
       ("degraded", Json.Int s.Maint.degraded);
       ("served", Json.Obj served);
     ]
    @
    (* wall-clock latency is not reproducible: only shipped on request,
       so default transcripts stay byte-identical across pool sizes *)
    if timing then
      [
        ( "latency",
          Json.Obj
            (List.filter_map
               (fun (kind, h) ->
                 if Prof.Hist.count h > 0 then Some (kind, Prof.Hist.to_json h)
                 else None)
               t.hist) );
      ]
    else [])

let outcome_fields (o : Maint.outcome) =
  [
    ("path", Json.Str (path_name o.Maint.path));
    ("degraded", Json.Bool o.Maint.degraded);
  ]
  @ report_fields o.Maint.report

let apply_update t ~op ~edge =
  match op with
  | "delete" -> Maint.delete t.maint edge
  | "insert" -> Maint.insert t.maint edge
  | o -> Error (Printf.sprintf "unknown update op %S" o)

let handle_update t req =
  match Json.member "batch" req with
  | Some (Json.List items) when List.length items > request_budget ->
    error_response ~req:"update"
      (Printf.sprintf "update: batch must hold at most %d items, got %d"
         request_budget (List.length items))
  | Some (Json.List items) ->
    let results =
      List.map
        (fun item ->
          let op = str_param item "op" ~default:"" in
          let edge = int_param item "edge" ~default:(-1) in
          match apply_update t ~op ~edge with
          | Error msg ->
            Json.Obj
              [
                ("op", Json.Str op);
                ("edge", Json.Int edge);
                ("ok", Json.Bool false);
                ("error", Json.Str msg);
              ]
          | Ok outcome ->
            Json.Obj
              ([
                 ("op", Json.Str op);
                 ("edge", Json.Int edge);
                 ("ok", Json.Bool true);
               ]
              @ match outcome with None -> [] | Some o -> outcome_fields o))
        items
    in
    ok_fields ~req:"update" ~id:None [ ("results", Json.List results) ]
  | Some _ -> error_response ~req:"update" "batch must be a list"
  | None -> (
    let op = str_param req "op" ~default:"" in
    let edge = int_param req "edge" ~default:(-1) in
    match apply_update t ~op ~edge with
    | Error msg -> error_response ~req:"update" msg
    | Ok None -> ok_fields ~req:"update" ~id:None []
    | Ok (Some o) -> ok_fields ~req:"update" ~id:None (outcome_fields o))

(* a fault plan reinterpreted as an update stream: cut=eE@rR deletes the
   edge at step R, ins=eE@rR inserts it, in [Plan.schedule]'s order
   (crashes are skipped), then [updates] extra seeded random updates flip
   random universe edges *)
let handle_churn t req =
  let spec = str_param req "plan" ~default:"" in
  let extra = int_param req "updates" ~default:0 in
  if extra > request_budget then
    invalid_arg
      (Printf.sprintf "churn: updates must be at most %d, got %d" request_budget
         extra);
  match if spec = "" then Ok Plan.empty else Plan.of_spec spec with
  | Error msg -> error_response ~req:"churn" ("bad plan: " ^ msg)
  | Ok plan ->
    let rng = Rng.create ~seed:plan.Plan.seed in
    let m = Graph.m (Maint.graph t.maint) in
    let applied = ref 0 and skipped = ref 0 in
    let incr_p = ref 0 and rep_p = ref 0 and reb_p = ref 0 in
    let degraded_steps = ref 0 in
    let note = function
      | None -> ()
      | Some (o : Maint.outcome) ->
        incr applied;
        (match o.Maint.path with
        | Maint.Incremental -> incr incr_p
        | Maint.Repaired -> incr rep_p
        | Maint.Rebuilt -> incr reb_p);
        if o.Maint.degraded then incr degraded_steps
    in
    let update op edge =
      match apply_update t ~op ~edge with
      | Error _ -> incr skipped (* e.g. cutting an already-dead edge *)
      | Ok o -> note o
    in
    List.iter
      (function
        | _, Plan.Crash _ -> ()
        | _, Plan.Cut edge -> update "delete" edge
        | _, Plan.Insert edge -> update "insert" edge)
      (Plan.schedule plan);
    for _ = 1 to extra do
      let e = Rng.int rng (max 1 m) in
      let r =
        if Bitset.mem (Maint.live t.maint) e then Maint.delete t.maint e
        else Maint.insert t.maint e
      in
      match r with Error _ -> incr skipped | Ok o -> note o
    done;
    let report = Maint.verify t.maint in
    ok_fields ~req:"churn" ~id:None
      ([
         ("applied", Json.Int !applied);
         ("skipped", Json.Int !skipped);
         ( "paths",
           Json.Obj
             [
               ("incremental", Json.Int !incr_p);
               ("repaired", Json.Int !rep_p);
               ("rebuilt", Json.Int !reb_p);
             ] );
         ("degraded_steps", Json.Int !degraded_steps);
       ]
      @ report_fields report)

(* ----- dispatch ----- *)

let handle t request =
  match request with
  | Json.Obj _ -> (
    let id = Json.member "id" request in
    let reattach_id resp =
      (* handlers build responses without ids; splice the echo in *)
      match (id, resp) with
      | None, r -> r
      | Some id, Json.Obj fields ->
        let rec insert = function
          | ("req", v) :: rest -> ("req", v) :: ("id", id) :: rest
          | f :: rest -> f :: insert rest
          | [] -> [ ("id", id) ]
        in
        Json.Obj (insert fields)
      | Some _, r -> r
    in
    match Option.bind (Json.member "req" request) Json.to_string_opt with
    | None -> (error_response ?id "request lacks a \"req\" kind", `Continue)
    | Some kind ->
      let record_and run =
        Hashtbl.replace t.served kind
          (1 + Option.value ~default:0 (Hashtbl.find_opt t.served kind));
        let t0 = Unix.gettimeofday () in
        let resp =
          (* a handler failure is a protocol-level error response — it
             must never tear down the accept loop *)
          match run () with
          | resp -> resp
          | exception Failure msg -> error_response ~req:kind ?id msg
          | exception Invalid_argument msg ->
            error_response ~req:kind ?id msg
          | exception exn ->
            error_response ~req:kind ?id (Printexc.to_string exn)
        in
        (match List.assoc_opt kind t.hist with
        | Some h -> Prof.Hist.add h ((Unix.gettimeofday () -. t0) *. 1e9)
        | None -> ());
        reattach_id resp
      in
      (match kind with
      | "solve" -> (record_and (fun () -> handle_solve t request), `Continue)
      | "verify" -> (record_and (fun () -> handle_verify t request), `Continue)
      | "resilience" ->
        (record_and (fun () -> handle_resilience t request), `Continue)
      | "audit" -> (record_and (fun () -> handle_audit t request), `Continue)
      | "stats" -> (record_and (fun () -> handle_stats t request), `Continue)
      | "update" -> (record_and (fun () -> handle_update t request), `Continue)
      | "churn" -> (record_and (fun () -> handle_churn t request), `Continue)
      | "shutdown" ->
        t.stopping <- true;
        (record_and (fun () -> ok_fields ~req:"shutdown" ~id:None []), `Shutdown)
      | k ->
        (error_response ?id (Printf.sprintf "unknown request kind %S" k),
         `Continue)))
  | _ -> (error_response "request is not a JSON object", `Continue)

(* ----- session loop over abstract byte streams ----- *)

let run_session ?(max_frame = Json.Frame.default_max_length) t ~read ~write =
  let dec = Json.Frame.decoder ~max_length:max_frame () in
  let buf = Bytes.create 65536 in
  let continue = ref true in
  while !continue do
    match Json.Frame.next dec with
    | `Frame v ->
      let resp, flow = handle t v in
      write (Json.Frame.encode resp);
      if flow = `Shutdown then continue := false
    | `Error msg ->
      (* sticky decoder error: answer once, drop the connection *)
      write (Json.Frame.encode (error_response msg));
      continue := false
    | `Await ->
      let n = read buf 0 (Bytes.length buf) in
      if n = 0 then begin
        if Json.Frame.pending dec > 0 then
          write
            (Json.Frame.encode
               (error_response "connection closed mid-frame"));
        continue := false
      end
      else Json.Frame.feed dec (Bytes.sub_string buf 0 n)
  done

(* ----- transports ----- *)

type address = Unix_socket of string | Tcp of string * int

let address_of_string s =
  match String.index_opt s ':' with
  | None -> Ok (Unix_socket s)
  | Some i -> (
    let scheme = String.sub s 0 i in
    let rest = String.sub s (i + 1) (String.length s - i - 1) in
    match scheme with
    | "unix" -> Ok (Unix_socket rest)
    | "tcp" -> (
      match String.rindex_opt rest ':' with
      | None -> Error "tcp address must be tcp:HOST:PORT"
      | Some j -> (
        let host = String.sub rest 0 j in
        let port = String.sub rest (j + 1) (String.length rest - j - 1) in
        match int_of_string_opt port with
        | Some p when p > 0 && p < 65536 -> Ok (Tcp (host, p))
        | _ -> Error ("bad port: " ^ port)))
    | _ -> Error ("unknown address scheme: " ^ scheme))

let pp_address ppf = function
  | Unix_socket p -> Format.fprintf ppf "unix:%s" p
  | Tcp (h, p) -> Format.fprintf ppf "tcp:%s:%d" h p

let resolve_sockaddr = function
  | Unix_socket path -> Unix.ADDR_UNIX path
  | Tcp (host, port) ->
    let addr =
      try (Unix.gethostbyname host).Unix.h_addr_list.(0)
      with Not_found -> Unix.inet_addr_of_string host
    in
    Unix.ADDR_INET (addr, port)

let session_over_fd t fd =
  let read b off len = Unix.read fd b off len in
  let write s =
    let b = Bytes.of_string s in
    let len = Bytes.length b in
    let off = ref 0 in
    while !off < len do
      off := !off + Unix.write fd b !off (len - !off)
    done
  in
  run_session t ~read ~write

(* a stale socket file from a dead server may be reclaimed; anything else
   at the path (a typoed --socket hitting a regular file, say) must never
   be silently deleted *)
let unlink_if_socket ~on_other path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_SOCK; _ } -> (
    try Unix.unlink path with Unix.Unix_error _ -> ())
  | _ -> on_other ()

(* accept loop: sessions are served one at a time (parallelism lives
   inside the handlers, on the lib/par pool); returns once a session
   handled a shutdown request. Socket errors on one connection are
   logged and the loop continues — nothing escapes it. *)
let listen ?(log = ignore) t addr =
  let sock =
    match addr with
    | Unix_socket path ->
      unlink_if_socket path ~on_other:(fun () ->
          failwith
            (Printf.sprintf
               "refusing to bind %s: the path exists and is not a socket" path));
      Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0
    | Tcp _ -> Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0
  in
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      match addr with
      | Unix_socket path -> unlink_if_socket path ~on_other:(fun () -> ())
      | Tcp _ -> ())
    (fun () ->
      Unix.bind sock (resolve_sockaddr addr);
      Unix.listen sock 8;
      log (Format.asprintf "listening on %a" pp_address addr);
      while not t.stopping do
        let conn, _ = Unix.accept sock in
        (try session_over_fd t conn
         with exn -> log ("session error: " ^ Printexc.to_string exn));
        try Unix.close conn with Unix.Unix_error _ -> ()
      done)

let run_stdio t =
  let read b off len = input stdin b off len in
  let write s =
    output_string stdout s;
    flush stdout
  in
  run_session t ~read ~write

(* ----- scripted client ----- *)

(* One JSON request per non-empty input line; each response is printed
   as one compact JSON line — the session transcript. Connection retries
   cover daemon startup races in scripted (CI) use. *)
let client ?(retries = 50) ~input ~output addr =
  let rec connect attempt =
    let fd =
      Unix.socket
        (match addr with Unix_socket _ -> Unix.PF_UNIX | Tcp _ -> Unix.PF_INET)
        Unix.SOCK_STREAM 0
    in
    match Unix.connect fd (resolve_sockaddr addr) with
    | () -> Ok fd
    | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      if attempt >= retries then
        Error
          (Format.asprintf "cannot connect to %a: %s" pp_address addr
             (Unix.error_message e))
      else begin
        Unix.sleepf 0.1;
        connect (attempt + 1)
      end
  in
  match connect 0 with
  | Error _ as e -> e
  | Ok fd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        let dec = Json.Frame.decoder () in
        let buf = Bytes.create 65536 in
        let read_response () =
          let rec go () =
            match Json.Frame.next_string dec with
            | `Frame payload -> Ok payload
            | `Error msg -> Error ("protocol error: " ^ msg)
            | `Await ->
              let n = Unix.read fd buf 0 (Bytes.length buf) in
              if n = 0 then Error "server closed the connection"
              else begin
                Json.Frame.feed dec (Bytes.sub_string buf 0 n);
                go ()
              end
          in
          go ()
        in
        let send s =
          let b = Bytes.of_string s in
          let len = Bytes.length b in
          let off = ref 0 in
          while !off < len do
            off := !off + Unix.write fd b !off (len - !off)
          done
        in
        let err = ref None in
        (try
           while !err = None do
             let line = input_line input in
             if String.trim line <> "" then begin
               send (Json.Frame.encode_string (String.trim line));
               match read_response () with
               | Error msg -> err := Some msg
               | Ok resp ->
                 output_string output resp;
                 output_char output '\n'
             end
           done
         with End_of_file -> ());
        match !err with None -> Ok () | Some msg -> Error msg)
