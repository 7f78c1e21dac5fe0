(* kecss serve: incremental certificate maintenance + wire protocol.

   The load-bearing property is canonicity: the maintained solution is a
   pure function of the live edge set, so after every update of a seeded
   churn stream it must equal a from-scratch rebuild byte-for-byte — and
   full session transcripts must be byte-identical at jobs 1 and 4. *)

open Kecss_graph
open Common
module Maint = Kecss_serve.Maint
module Server = Kecss_serve.Server
module Verify = Kecss_connectivity.Verify
module Edge_connectivity = Kecss_connectivity.Edge_connectivity
module Json = Kecss_obs.Json
module Pool = Kecss_par.Pool

let bitset_to_list b = Bitset.fold (fun e acc -> e :: acc) b []

let check_canonical ~msg t =
  (* a fresh maintainer over the same live set rebuilds from scratch *)
  let fresh =
    Maint.create ~live:(Maint.live t) (Maint.graph t) ~k:(Maint.k t)
  in
  Alcotest.(check (list int))
    msg
    (bitset_to_list (Maint.solution fresh))
    (bitset_to_list (Maint.solution t))

(* seeded churn: random universe edge — delete if live, insert if dead *)
let churn ~seed ~updates ~per_update t =
  let rng = Rng.create ~seed in
  let m = Graph.m (Maint.graph t) in
  for step = 1 to updates do
    let e = Rng.int rng m in
    let r =
      if Bitset.mem (Maint.live t) e then Maint.delete t e else Maint.insert t e
    in
    match r with
    | Error msg -> Alcotest.failf "churn step %d: %s" step msg
    | Ok None -> Alcotest.fail "gated update returned no outcome"
    | Ok (Some outcome) -> per_update step e outcome
  done

let test_churn_matches_rebuild () =
  List.iter
    (fun (name, g) ->
      let k = 2 in
      let t = Maint.create g ~k in
      check_canonical ~msg:(name ^ ": initial certificate canonical") t;
      churn ~seed:42 ~updates:120 t ~per_update:(fun step _ outcome ->
          (* the gate's report is authoritative; cross-check canonicity
             and the certificate guarantee at every step *)
          check_canonical ~msg:(Printf.sprintf "%s step %d" name step) t;
          let live_ok =
            Edge_connectivity.is_k_edge_connected ~mask:(Maint.live t)
              (Maint.graph t) k
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s step %d: solution ok iff live graph ok" name
               step)
            live_ok outcome.Maint.report.Verify.ok;
          Alcotest.(check bool)
            (Printf.sprintf "%s step %d: degraded flag" name step)
            (not live_ok) outcome.Maint.degraded;
          Alcotest.(check bool)
            (Printf.sprintf "%s step %d: incremental path" name step)
            true
            (outcome.Maint.path = Maint.Incremental)))
    (two_ec_pool ())

let test_churn_k3 () =
  let rng = Rng.create ~seed:31415 in
  let g =
    Weights.uniform rng ~lo:1 ~hi:50 (Gen.random_k_connected rng 40 3 ~extra:60)
  in
  let t = Maint.create g ~k:3 in
  churn ~seed:7 ~updates:150 t ~per_update:(fun step _ _ ->
      if step mod 10 = 0 then
        check_canonical ~msg:(Printf.sprintf "k3 step %d" step) t);
  check_canonical ~msg:"k3 final" t

let test_certificate_bound () =
  (* certificate size ≤ k(n-1); λ(C) ≥ min(k, λ(G)) on the initial set *)
  List.iter
    (fun (name, g) ->
      let k = 2 in
      let t = Maint.create g ~k in
      let r = Maint.verify t in
      Alcotest.(check bool) (name ^ ": verified") true r.Verify.ok;
      Alcotest.(check bool)
        (name ^ ": size bound")
        true
        (r.Verify.edge_count <= k * (Graph.n g - 1)))
    (two_ec_pool ())

let test_delete_insert_roundtrip () =
  (* deleting an edge and reinserting it restores the identical
     certificate: canonicity is history-independence *)
  let rng = Rng.create ~seed:7777 in
  let g =
    Weights.uniform rng ~lo:1 ~hi:200 (Gen.random_k_connected rng 30 2 ~extra:25)
  in
  let t = Maint.create g ~k:2 in
  let before = bitset_to_list (Maint.solution t) in
  for e = 0 to Graph.m g - 1 do
    (match Maint.delete t e with Ok _ -> () | Error m -> Alcotest.fail m);
    match Maint.insert t e with Ok _ -> () | Error m -> Alcotest.fail m
  done;
  Alcotest.(check (list int))
    "certificate restored" before
    (bitset_to_list (Maint.solution t))

let test_update_errors () =
  let g = Gen.cycle 8 in
  let t = Maint.create g ~k:1 in
  (match Maint.delete t 99 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown edge accepted");
  (match Maint.insert t 0 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "inserting a live edge accepted");
  (match Maint.delete t 0 with Ok _ -> () | Error m -> Alcotest.fail m);
  match Maint.delete t 0 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "double delete accepted"

let test_repair_path () =
  (* corrupt the maintained solution below k while the live graph stays
     k-connected: the gate must restore service via repair (or rebuild)
     and count it *)
  let rng = Rng.create ~seed:99 in
  let g =
    Weights.uniform rng ~lo:1 ~hi:40 (Gen.circulant 20 [ 1; 2 ])
  in
  let t = Maint.create g ~k:2 in
  let sol = Maint.solution t in
  (* remove solution edges until verification fails *)
  (try
     List.iter
       (fun e ->
         Bitset.remove sol e;
         if not (Maint.verify t).Verify.ok then raise Exit)
       (List.rev (bitset_to_list sol))
   with Exit -> ());
  Alcotest.(check bool) "corrupted" false (Maint.verify t).Verify.ok;
  (* any gated no-op-ish update flushes through the gate *)
  (match Maint.delete t 0 with
  | Error m -> Alcotest.fail m
  | Ok None -> Alcotest.fail "no outcome"
  | Ok (Some o) ->
    Alcotest.(check bool) "service restored" true o.Maint.report.Verify.ok;
    Alcotest.(check bool)
      "non-incremental path" true
      (o.Maint.path <> Maint.Incremental));
  let s = Maint.stats t in
  Alcotest.(check bool)
    "repair or rebuild counted" true
    (s.Maint.repairs + s.Maint.rebuilds > 0)

let test_degraded_then_recovered () =
  (* cutting a vertex below degree k degrades the graph; the gate says
     so; restoring the edges recovers a verified solution *)
  let g = Gen.cycle 10 in
  let t = Maint.create g ~k:2 in
  (* vertex 0's two cycle edges: ids of edges incident to 0 *)
  let incident =
    List.init (Graph.degree g 0) (Graph.adj_eid_at g 0) |> List.sort compare
  in
  List.iter
    (fun e ->
      match Maint.delete t e with Ok _ -> () | Error m -> Alcotest.fail m)
    incident;
  let s = Maint.stats t in
  Alcotest.(check bool) "degraded counted" true (s.Maint.degraded > 0);
  List.iter
    (fun e ->
      match Maint.insert t e with Ok _ -> () | Error m -> Alcotest.fail m)
    incident;
  Alcotest.(check bool) "recovered" true (Maint.verify t).Verify.ok;
  check_canonical ~msg:"recovered canonical" t

(* ----- server / wire protocol ----- *)

let serve_graph () =
  let rng = Rng.create ~seed:2024 in
  Weights.uniform rng ~lo:1 ~hi:60 (Gen.random_k_connected rng 48 2 ~extra:70)

(* drive a whole session through the frame decoder from an in-memory
   byte stream, in deliberately awkward chunks to exercise incremental
   framing *)
let run_session_string ?(chunk = 7) srv input =
  let pos = ref 0 in
  let read buf off len =
    let n = min (min len chunk) (String.length input - !pos) in
    Bytes.blit_string input !pos buf off n;
    pos := !pos + n;
    n
  in
  let out = Buffer.create 1024 in
  Server.run_session srv ~read ~write:(Buffer.add_string out);
  Buffer.contents out

let frames_of_requests reqs =
  String.concat "" (List.map Json.Frame.encode_string reqs)

(* decode all response frames back out of the session output *)
let decode_responses output =
  let dec = Json.Frame.decoder () in
  Json.Frame.feed dec output;
  let rec go acc =
    match Json.Frame.next dec with
    | `Frame v -> go (v :: acc)
    | `Await -> List.rev acc
    | `Error msg -> Alcotest.failf "response stream: %s" msg
  in
  go []

let field_str resp key =
  match Option.bind (Json.member key resp) Json.to_string_opt with
  | Some s -> s
  | None -> Alcotest.failf "response lacks string field %S" key

let field_bool resp key =
  match Json.member key resp with
  | Some (Json.Bool b) -> b
  | _ -> Alcotest.failf "response lacks bool field %S" key

let test_session_basic () =
  let srv = Server.create ~seed:11 (serve_graph ()) ~k:2 in
  let reqs =
    [
      {|{"req":"stats","id":1}|};
      {|{"req":"solve","algo":"certificate","edges":true}|};
      {|{"req":"verify"}|};
      {|{"req":"update","op":"delete","edge":3}|};
      {|{"req":"update","batch":[{"op":"insert","edge":3},{"op":"delete","edge":3}]}|};
      {|{"req":"audit"}|};
      {|{"req":"shutdown","id":"bye"}|};
    ]
  in
  let out = run_session_string srv (frames_of_requests reqs) in
  let resps = decode_responses out in
  Alcotest.(check int) "one response per request" (List.length reqs)
    (List.length resps);
  List.iter
    (fun r ->
      Alcotest.(check string)
        "schema" Server.schema_version (field_str r "schema");
      Alcotest.(check bool) "ok" true (field_bool r "ok"))
    resps;
  (match List.nth resps 6 with
  | r ->
    Alcotest.(check string) "id echoed" "bye"
      (match Json.member "id" r with Some (Json.Str s) -> s | _ -> "?"));
  Alcotest.(check bool) "server stopping" true (Server.stopping srv)

let test_session_errors_then_continue () =
  (* bad requests produce ok:false responses and the session keeps
     serving; only framing errors end it *)
  let srv = Server.create (serve_graph ()) ~k:2 in
  let reqs =
    [
      {|{"req":"frobnicate"}|};
      {|[1,2,3]|};
      {|{"nope":true}|};
      {|{"req":"update","op":"delete","edge":99999}|};
      {|{"req":"solve","algo":"no-such-algo"}|};
      {|{"req":"verify"}|};
      {|{"req":"shutdown"}|};
    ]
  in
  let resps =
    decode_responses (run_session_string srv (frames_of_requests reqs))
  in
  Alcotest.(check int) "all answered" 7 (List.length resps);
  let oks = List.map (fun r -> field_bool r "ok") resps in
  Alcotest.(check (list bool))
    "errors are responses, not disconnects"
    [ false; false; false; false; false; true; true ]
    oks

let test_resilience_trials_bounded () =
  (* an attack runs on the sequential accept loop, so an oversized trial
     count is refused up front instead of stalling every client *)
  let srv = Server.create (serve_graph ()) ~k:2 in
  let reqs =
    [
      {|{"req":"resilience","trials":1000000000}|};
      {|{"req":"stats"}|};
      {|{"req":"shutdown"}|};
    ]
  in
  let t0 = Unix.gettimeofday () in
  let resps =
    decode_responses (run_session_string srv (frames_of_requests reqs))
  in
  Alcotest.(check bool) "refused at once" true (Unix.gettimeofday () -. t0 < 5.0);
  Alcotest.(check (list bool))
    "the error is a response; stats is still answered"
    [ false; true; true ]
    (List.map (fun r -> field_bool r "ok") resps);
  Alcotest.(check bool) "the error names the parameter" true
    (String.starts_with ~prefix:"resilience: trials"
       (field_str (List.hd resps) "error"))

let test_update_budgets () =
  (* every churn update and batch item is verify-gated on the sequential
     accept loop: an oversized count is refused up front like trials *)
  let srv = Server.create (serve_graph ()) ~k:2 in
  let batch =
    String.concat ","
      (List.init 1025 (fun _ -> {|{"op":"delete","edge":0}|}))
  in
  let reqs =
    [
      {|{"req":"churn","plan":"seed=1","updates":1000000000}|};
      Printf.sprintf {|{"req":"update","batch":[%s]}|} batch;
      {|{"req":"stats"}|};
      {|{"req":"shutdown"}|};
    ]
  in
  let t0 = Unix.gettimeofday () in
  let resps =
    decode_responses (run_session_string srv (frames_of_requests reqs))
  in
  Alcotest.(check bool) "refused at once" true (Unix.gettimeofday () -. t0 < 5.0);
  Alcotest.(check (list bool))
    "the errors are responses; stats is still answered"
    [ false; false; true; true ]
    (List.map (fun r -> field_bool r "ok") resps);
  Alcotest.(check (list string))
    "the errors name the parameter"
    [
      "churn: updates must be at most 1024, got 1000000000";
      "update: batch must hold at most 1024 items, got 1025";
    ]
    (List.map (fun r -> field_str r "error") [ List.nth resps 0; List.nth resps 1 ]);
  Alcotest.(check int) "nothing was applied" 0
    (Maint.stats (Server.maint srv)).Maint.deletes

let test_session_truncated_frame () =
  let srv = Server.create (serve_graph ()) ~k:2 in
  let input = frames_of_requests [ {|{"req":"verify"}|} ] ^ "12\n{\"req\":" in
  let resps = decode_responses (run_session_string srv input) in
  Alcotest.(check int) "verify + truncation error" 2 (List.length resps);
  Alcotest.(check bool) "truncation is ok:false" false
    (field_bool (List.nth resps 1) "ok")

let test_session_bad_prefix () =
  let srv = Server.create (serve_graph ()) ~k:2 in
  let input = "not-a-length\n{}" in
  let resps = decode_responses (run_session_string srv input) in
  Alcotest.(check int) "one error frame" 1 (List.length resps);
  Alcotest.(check bool) "ok:false" false (field_bool (List.hd resps) "ok")

let churn_script =
  [
    {|{"req":"stats"}|};
    {|{"req":"churn","plan":"cut=e2@r0,cut=e5@r1,ins=e2@r4,seed=13","updates":60}|};
    {|{"req":"verify"}|};
    {|{"req":"solve","algo":"certificate","edges":true}|};
    {|{"req":"audit"}|};
    {|{"req":"stats","id":"end"}|};
    {|{"req":"shutdown"}|};
  ]

let test_transcript_jobs_invariant () =
  (* the CI smoke in shell form: the same seeded session must produce
     byte-identical output at pool sizes 1 and 4 *)
  let session jobs =
    Pool.set_default_jobs jobs;
    let srv = Server.create ~seed:5 (serve_graph ()) ~k:2 in
    run_session_string srv (frames_of_requests churn_script)
  in
  let t1 = session 1 in
  let t4 = session 4 in
  Pool.set_default_jobs 1;
  Alcotest.(check string) "transcripts byte-identical at jobs 1 vs 4" t1 t4

(* A seeded flap stream in the shape the serve benchmark sends: each
   cycle is six updates (delete a random live edge, or revive the oldest
   down one, at most six down at once), a verify at the default cap, a
   verify at a cap no λ here reaches, and an audit. *)
let flap_script ~seed g ~cycles =
  let rng = Rng.create ~seed in
  let m = Graph.m g in
  let down = Queue.create () and is_down = Bitset.create m in
  let update () =
    if Queue.length down >= 6 || ((not (Queue.is_empty down)) && Rng.bool rng)
    then begin
      let e = Queue.pop down in
      Bitset.remove is_down e;
      Printf.sprintf {|{"req":"update","op":"insert","edge":%d}|} e
    end
    else begin
      let rec pick () =
        let e = Rng.int rng m in
        if Bitset.mem is_down e then pick () else e
      in
      let e = pick () in
      Queue.push e down;
      Bitset.add is_down e;
      Printf.sprintf {|{"req":"update","op":"delete","edge":%d}|} e
    end
  in
  List.concat
    (List.init cycles (fun _ ->
         List.init 6 (fun _ -> update ())
         @ [ {|{"req":"verify"}|}; {|{"req":"verify","cap":1000}|}; {|{"req":"audit"}|} ]))
  @ [ {|{"req":"shutdown"}|} ]

let test_transcript_pinned () =
  (* every response of a gated churn session — the λ of each update's
     gate, verify at two caps, audit — pinned by the digest of the whole
     transcript, at k = 2 and at k = 3 *)
  let rng = Rng.create ~seed:4242 in
  let g3 =
    Weights.uniform rng ~lo:1 ~hi:60 (Gen.random_k_connected rng 40 4 ~extra:60)
  in
  List.iter
    (fun (k, g, digest) ->
      let srv = Server.create ~seed:5 g ~k in
      let out =
        run_session_string srv (frames_of_requests (flap_script ~seed:k g ~cycles:40))
      in
      Alcotest.(check string)
        (Printf.sprintf "transcript digest at k = %d" k)
        digest
        (Digest.to_hex (Digest.string out)))
    [ (2, serve_graph (), "c59a824923eaeec1d854b1509b70a8d8"); (3, g3, "138b372a2c4106500d80ad2465fc5fad") ]

let test_churn_request_canonical () =
  (* after a served churn stream the resident solution equals the
     from-scratch certificate of the final live set, and verification
     gates every update (the response's report is the last gate) *)
  let srv = Server.create (serve_graph ()) ~k:2 in
  let resps =
    decode_responses
      (run_session_string srv
         (frames_of_requests
            [
              {|{"req":"churn","plan":"seed=3","updates":100}|};
              {|{"req":"shutdown"}|};
            ]))
  in
  let churn = List.hd resps in
  Alcotest.(check bool) "churn ok" true (field_bool churn "ok");
  (match Json.member "applied" churn with
  | Some (Json.Int n) ->
    Alcotest.(check bool) "updates applied" true (n >= 90)
  | _ -> Alcotest.fail "no applied count");
  let t = Server.maint srv in
  check_canonical ~msg:"served solution canonical after churn" t;
  let live_ok =
    Edge_connectivity.is_k_edge_connected ~mask:(Maint.live t) (Maint.graph t)
      2
  in
  Alcotest.(check bool) "final verify matches live graph" live_ok
    (field_bool churn "verified")

let test_stats_latency_optin () =
  (* timing data is wall-clock and therefore excluded unless asked for *)
  let srv = Server.create (serve_graph ()) ~k:2 in
  let resps =
    decode_responses
      (run_session_string srv
         (frames_of_requests
            [
              {|{"req":"verify"}|};
              {|{"req":"stats"}|};
              {|{"req":"stats","timing":true}|};
              {|{"req":"shutdown"}|};
            ]))
  in
  let plain = List.nth resps 1 and timed = List.nth resps 2 in
  Alcotest.(check bool) "no latency by default" true
    (Json.member "latency" plain = None);
  match Json.member "latency" timed with
  | Some (Json.Obj fields) ->
    Alcotest.(check bool) "verify histogram present" true
      (List.mem_assoc "verify" fields)
  | _ -> Alcotest.fail "timing:true must include latency"

let test_listen_refuses_non_socket () =
  (* regression: listen used to unlink whatever existed at the unix socket
     path before binding.  A regular file must survive and fail the bind. *)
  let contains s sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
    in
    go 0
  in
  let path = Filename.temp_file "kecss_serve_guard" ".txt" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "precious";
      close_out oc;
      let srv = Server.create (Gen.cycle 6) ~k:2 in
      (match Server.listen srv (Server.Unix_socket path) with
      | exception Failure msg ->
        Alcotest.(check bool) "error names the conflict" true
          (contains msg "not a socket" && contains msg path)
      | () -> Alcotest.fail "listen must refuse a non-socket path");
      Alcotest.(check bool) "file still exists" true (Sys.file_exists path);
      let ic = open_in path in
      let content = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Alcotest.(check string) "content untouched" "precious" content)

let server_tests =
  [
    case "listen refuses to clobber a non-socket path"
      test_listen_refuses_non_socket;
    case "session answers every request kind" test_session_basic;
    case "bad requests answer ok:false and the session continues"
      test_session_errors_then_continue;
    case "oversized resilience trial count is refused"
      test_resilience_trials_bounded;
    case "oversized churn and batch requests are refused" test_update_budgets;
    case "truncated trailing frame yields a protocol error"
      test_session_truncated_frame;
    case "garbage length prefix yields a protocol error"
      test_session_bad_prefix;
    case "session transcripts are byte-identical at jobs 1 and 4"
      test_transcript_jobs_invariant;
    case "gated churn transcripts are pinned at k = 2 and 3"
      test_transcript_pinned;
    case "served churn stream ends canonical and verified"
      test_churn_request_canonical;
    case "latency is reported only on request" test_stats_latency_optin;
  ]

let maint_tests =
  [
    case "churn stream matches from-scratch rebuild at every step"
      test_churn_matches_rebuild;
    case "k=3 churn stays canonical" test_churn_k3;
    case "certificate verifies within the size bound" test_certificate_bound;
    case "delete+reinsert restores the identical certificate"
      test_delete_insert_roundtrip;
    case "update errors leave state untouched" test_update_errors;
    case "corrupted solution goes through repair and is restored"
      test_repair_path;
    case "degraded graph is flagged and recovery re-verifies"
      test_degraded_then_recovered;
  ]

let () =
  Alcotest.run "serve" [ ("maint", maint_tests); ("server", server_tests) ]
