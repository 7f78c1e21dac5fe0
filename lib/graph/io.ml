let to_buffer buf g =
  Buffer.add_string buf (Printf.sprintf "p kecss %d %d\n" (Graph.n g) (Graph.m g));
  Graph.iter_edges
    (fun e -> Buffer.add_string buf (Printf.sprintf "e %d %d %d\n" e.Graph.u e.Graph.v e.Graph.w))
    g

let to_string g =
  let buf = Buffer.create 1024 in
  to_buffer buf g;
  Buffer.contents buf

(* Past n = 2m + 1 some vertex is isolated whatever the edges are, so a
   header declaring more vertices than that describes no graph the
   solvers take, and would make the loader allocate per-vertex arrays
   the input cannot back. Compared without computing 2m + 1, which
   could overflow. *)
let vertices_exceed_edges n m = n - 1 - m > m

(* exactly "c" or "c <text>" — a record kind, not any line whose first
   letter happens to be c *)
let is_comment line =
  line = "c" || (String.length line >= 2 && line.[0] = 'c' && line.[1] = ' ')

let of_lines lines =
  let header = ref None in
  let edges = ref [] in
  let seen = Hashtbl.create 64 in
  List.iteri
    (fun lineno line ->
      let fail fmt =
        Printf.ksprintf
          (fun msg ->
            failwith (Printf.sprintf "Io.of_string: line %d: %s" (lineno + 1) msg))
          fmt
      in
      let line = String.trim line in
      if line = "" || is_comment line then ()
      else
        match String.split_on_char ' ' line |> List.filter (fun s -> s <> "") with
        | [ "p"; "kecss"; n; m ] -> begin
          match !header with
          | Some _ -> fail "duplicate header"
          | None -> (
            match int_of_string_opt n, int_of_string_opt m with
            | Some n, Some m when n > 0 && m >= 0 ->
              if vertices_exceed_edges n m then
                fail "vertex count %d exceeds 2m+1 = %d for m=%d" n ((2 * m) + 1) m;
              header := Some (n, m)
            | _ -> fail "bad header numbers")
        end
        | [ "e"; u; v; w ] -> begin
          match !header with
          | None -> fail "edge line before the p kecss header"
          | Some (n, _) -> (
            match int_of_string_opt u, int_of_string_opt v, int_of_string_opt w with
            | Some u, Some v, Some w ->
              if u < 0 || u >= n then fail "endpoint %d out of range [0, %d)" u n;
              if v < 0 || v >= n then fail "endpoint %d out of range [0, %d)" v n;
              if u = v then fail "self-loop at vertex %d" u;
              if w < 0 then fail "negative weight %d" w;
              let key = if u < v then (u, v) else (v, u) in
              if Hashtbl.mem seen key then fail "duplicate edge %d %d" u v;
              Hashtbl.add seen key ();
              edges := (u, v, w) :: !edges
            | _ -> fail "bad edge numbers")
        end
        | _ -> fail "unrecognized line")
    lines;
  match !header with
  | None -> failwith "Io.of_string: missing header"
  | Some (n, m) ->
    let edges = List.rev !edges in
    if List.length edges <> m then
      failwith
        (Printf.sprintf "Io.of_string: header declares %d edges, found %d" m
           (List.length edges));
    Graph.make ~n edges

let of_string s = of_lines (String.split_on_char '\n' s)
let to_channel oc g = output_string oc (to_string g)

let of_channel ic =
  let rec read acc =
    match input_line ic with
    | line -> read (line :: acc)
    | exception End_of_file -> List.rev acc
  in
  of_lines (read [])

(* ------------------------------------------------------------------ *)
(* kecss-bin/1: compact binary codec.

   Layout (all fields little-endian int64, so every array is 8-byte
   aligned and the file can be mapped directly):

     offset 0   magic   "kecssbin" (8 bytes)
     offset 8   version (currently 1)
     offset 16  n
     offset 24  m
     offset 32         u endpoints, m words (u < v)
     offset 32 + 8m    v endpoints, m words
     offset 32 + 16m   weights,     m words

   Adjacency is rebuilt in O(n + m) on load from the edge arrays, so
   edge ids and per-vertex adjacency order round-trip exactly with the
   text codec.  Unlike the text parser, the binary reader does not
   reject duplicate edges (parallel edges are legal in [Graph]); it is
   a fast trusted-producer path, with structural validation only. *)

let binary_magic = "kecssbin"
let binary_version = 1
let magic64 = String.get_int64_le binary_magic 0

let fail_at off fmt =
  Printf.ksprintf
    (fun msg -> failwith (Printf.sprintf "Io.of_binary: offset %d: %s" off msg))
    fmt

let to_binary_string g =
  let n = Graph.n g and m = Graph.m g in
  let b = Bytes.create (32 + (24 * m)) in
  Bytes.blit_string binary_magic 0 b 0 8;
  Bytes.set_int64_le b 8 (Int64.of_int binary_version);
  Bytes.set_int64_le b 16 (Int64.of_int n);
  Bytes.set_int64_le b 24 (Int64.of_int m);
  for id = 0 to m - 1 do
    Bytes.set_int64_le b (32 + (8 * id)) (Int64.of_int (Graph.edge_u g id));
    Bytes.set_int64_le b (32 + (8 * m) + (8 * id)) (Int64.of_int (Graph.edge_v g id));
    Bytes.set_int64_le b (32 + (16 * m) + (8 * id)) (Int64.of_int (Graph.weight g id))
  done;
  Bytes.unsafe_to_string b

(* A decode source: total byte length plus an aligned little-endian
   64-bit read.  Instantiated over an in-memory string and over an
   mmapped [Bigarray.int64] view of the file. *)
type reader = { len : int; get64 : int -> int64 }

let decode_binary r =
  if r.len < 32 then
    fail_at 0 "truncated header: %d bytes, need at least 32" r.len;
  if r.get64 0 <> magic64 then fail_at 0 "bad magic (expected %S)" binary_magic;
  let version = Int64.to_int (r.get64 8) in
  if version <> binary_version then
    fail_at 8 "unsupported version %d (this build reads version %d)" version
      binary_version;
  let n64 = r.get64 16 and m64 = r.get64 24 in
  if Int64.compare n64 1L < 0 || Int64.compare n64 (Int64.of_int max_int) > 0
  then fail_at 16 "bad vertex count %Ld" n64;
  if Int64.compare m64 0L < 0
     || Int64.compare m64 (Int64.of_int (max_int / 24)) > 0
  then fail_at 24 "bad edge count %Ld" m64;
  let n = Int64.to_int n64 and m = Int64.to_int m64 in
  if vertices_exceed_edges n m then
    fail_at 16 "vertex count %d exceeds 2m+1 = %d for m=%d" n ((2 * m) + 1) m;
  let expect = 32 + (24 * m) in
  if r.len < expect then
    fail_at 32 "truncated edge data: %d bytes, need %d for m=%d" r.len expect m;
  if r.len > expect then
    fail_at expect "trailing bytes: %d bytes, expected %d for m=%d" r.len
      expect m;
  let eu = Array.make m 0 and ev = Array.make m 0 and ew = Array.make m 0 in
  for i = 0 to m - 1 do
    let off = 32 + (8 * i) in
    let u = Int64.to_int (r.get64 off) in
    let v = Int64.to_int (r.get64 (off + (8 * m))) in
    let w = Int64.to_int (r.get64 (off + (16 * m))) in
    if u < 0 || u >= n then
      fail_at off "edge %d: endpoint %d out of range [0, %d)" i u n;
    if v < 0 || v >= n then
      fail_at (off + (8 * m)) "edge %d: endpoint %d out of range [0, %d)" i v n;
    if u = v then fail_at off "edge %d: self-loop at vertex %d" i u;
    if w < 0 then fail_at (off + (16 * m)) "edge %d: negative weight %d" i w;
    eu.(i) <- u;
    ev.(i) <- v;
    ew.(i) <- w
  done;
  Graph.of_arrays ~n eu ev ew

let of_binary_string s =
  decode_binary
    { len = String.length s; get64 = (fun off -> String.get_int64_le s off) }

let save_binary path g =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_binary_string g))

let read_all ic =
  let len = in_channel_length ic in
  really_input_string ic len

let load_binary path =
  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  let size = (Unix.fstat fd).Unix.st_size in
  let mappable = size >= 32 && size mod 8 = 0 && not Sys.big_endian in
  let mapped =
    if not mappable then None
    else
      match
        Unix.map_file fd Bigarray.int64 Bigarray.c_layout false [| size / 8 |]
      with
      | map -> Some (Bigarray.array1_of_genarray map)
      | exception Unix.Unix_error _ -> None
  in
  match mapped with
  | Some a ->
    decode_binary
      { len = size; get64 = (fun off -> Bigarray.Array1.get a (off / 8)) }
  | None ->
    let ic = Unix.in_channel_of_descr fd in
    seek_in ic 0;
    of_binary_string (read_all ic)

let is_binary_magic s =
  String.length s >= 8 && String.sub s 0 8 = binary_magic

let load path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  let len = in_channel_length ic in
  let prefix = really_input_string ic (min 8 len) in
  if is_binary_magic prefix then begin
    close_in_noerr ic;
    load_binary path
  end
  else begin
    seek_in ic 0;
    of_channel ic
  end

let to_dot ?highlight g =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "graph kecss {\n  node [shape=circle];\n";
  Graph.iter_edges
    (fun e ->
      let hot =
        match highlight with None -> false | Some s -> Bitset.mem s e.Graph.id
      in
      Buffer.add_string buf
        (Printf.sprintf "  %d -- %d [label=\"%d\"%s];\n" e.Graph.u e.Graph.v
           e.Graph.w
           (if hot then ", penwidth=3, color=\"#b3589a\"" else "")))
    g;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
