module Hist = struct
  (* Geometric buckets: bucket 0 catches everything below [lo_ns], the
     last bucket everything above the top edge; in between each bucket is
     a factor [ratio] wide, so resolution is a constant ~19% across the
     whole 1µs..~16s range. *)
  let lo_ns = 1e3
  let ratio = Float.exp (Float.log 2.0 /. 4.0) (* 2^(1/4) *)
  let inner = 96 (* 96 buckets of 2^(1/4) = 24 octaves: 1µs * 2^24 ~ 16.7s *)

  type t = {
    counts : int array; (* inner + under/overflow *)
    mutable count : int;
    mutable total : float;
    mutable min : float;
    mutable max : float;
  }

  let create () =
    {
      counts = Array.make (inner + 2) 0;
      count = 0;
      total = 0.0;
      min = infinity;
      max = 0.0;
    }

  let bucket ns =
    if ns < lo_ns then 0
    else
      let i = 1 + int_of_float (Float.log (ns /. lo_ns) /. Float.log ratio) in
      if i > inner + 1 then inner + 1 else i

  let add h ns =
    let ns = if ns < 0.0 then 0.0 else ns in
    let b = bucket ns in
    h.counts.(b) <- h.counts.(b) + 1;
    h.count <- h.count + 1;
    h.total <- h.total +. ns;
    if ns < h.min then h.min <- ns;
    if ns > h.max then h.max <- ns

  let count h = h.count
  let total_ns h = h.total
  let min_ns h = if h.count = 0 then 0.0 else h.min
  let max_ns h = if h.count = 0 then 0.0 else h.max

  (* geometric midpoint of an inner bucket's edges *)
  let bucket_mid i = lo_ns *. (ratio ** (float_of_int i -. 1.0 +. 0.5))

  let percentile h q =
    if h.count = 0 then 0.0
    else begin
      let q = if q < 0.0 then 0.0 else if q > 1.0 then 1.0 else q in
      let rank =
        let r = int_of_float (Float.ceil (q *. float_of_int h.count)) in
        if r < 1 then 1 else r
      in
      let b = ref 0 and seen = ref 0 in
      (try
         for i = 0 to inner + 1 do
           seen := !seen + h.counts.(i);
           if !seen >= rank then begin
             b := i;
             raise Exit
           end
         done
       with Exit -> ());
      let v =
        if !b = 0 then h.min
        else if !b = inner + 1 then h.max
        else bucket_mid !b
      in
      Float.min h.max (Float.max h.min v)
    end

  let p50 h = percentile h 0.50
  let p90 h = percentile h 0.90
  let p99 h = percentile h 0.99

  let to_json h =
    let pct p = if h.count = 0 then Json.Null else Json.Float (p h) in
    Json.Obj
      [
        ("count", Json.Int h.count);
        ("total_ns", Json.Float h.total);
        ("min_ns", Json.Float (min_ns h));
        ("max_ns", Json.Float (max_ns h));
        ("p50_ns", pct p50);
        ("p90_ns", pct p90);
        ("p99_ns", pct p99);
      ]
end

type gc_delta = {
  minor_words : float;
  promoted_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
}

type stat = {
  name : string;
  calls : int;
  total_ns : float;
  max_ns : float;
  gc : gc_delta;
  hist : Hist.t;
}

type srec = {
  mutable r_calls : int;
  mutable r_total : float;
  mutable r_max : float;
  mutable r_minor : float;
  mutable r_promoted : float;
  mutable r_major : float;
  mutable r_minor_c : int;
  mutable r_major_c : int;
  r_hist : Hist.t;
}

type recording = { m : Mutex.t; tbl : (string, srec) Hashtbl.t }
type t = Noop | Recording of recording

let noop = Noop
let create () = Recording { m = Mutex.create (); tbl = Hashtbl.create 32 }
let enabled = function Noop -> false | Recording _ -> true
let now_ns () = Unix.gettimeofday () *. 1e9

(* [Gc.minor_words ()] reads the allocation pointer, so it is exact even
   between collections; quick_stat's counters only settle at collection
   boundaries *)
let allocated_words () =
  let s = Gc.quick_stat () in
  Gc.minor_words () +. s.Gc.major_words -. s.Gc.promoted_words

let record r name ~dns ~dminor ~promoted ~major ~minor_c ~major_c =
  let dns = if dns < 0.0 then 0.0 else dns in
  Mutex.lock r.m;
  let s =
    match Hashtbl.find_opt r.tbl name with
    | Some s -> s
    | None ->
      let s =
        {
          r_calls = 0;
          r_total = 0.0;
          r_max = 0.0;
          r_minor = 0.0;
          r_promoted = 0.0;
          r_major = 0.0;
          r_minor_c = 0;
          r_major_c = 0;
          r_hist = Hist.create ();
        }
      in
      Hashtbl.add r.tbl name s;
      s
  in
  s.r_calls <- s.r_calls + 1;
  s.r_total <- s.r_total +. dns;
  if dns > s.r_max then s.r_max <- dns;
  s.r_minor <- s.r_minor +. dminor;
  s.r_promoted <- s.r_promoted +. promoted;
  s.r_major <- s.r_major +. major;
  s.r_minor_c <- s.r_minor_c + minor_c;
  s.r_major_c <- s.r_major_c + major_c;
  Hist.add s.r_hist dns;
  Mutex.unlock r.m

let span t name f =
  match t with
  | Noop -> f ()
  | Recording r ->
    let t0 = now_ns () in
    let g0 = Gc.quick_stat () in
    let m0 = Gc.minor_words () in
    Fun.protect
      ~finally:(fun () ->
        let t1 = now_ns () in
        let g1 = Gc.quick_stat () in
        let dminor = Gc.minor_words () -. m0 in
        record r name ~dns:(t1 -. t0) ~dminor
          ~promoted:(g1.Gc.promoted_words -. g0.Gc.promoted_words)
          ~major:(g1.Gc.major_words -. g0.Gc.major_words)
          ~minor_c:(g1.Gc.minor_collections - g0.Gc.minor_collections)
          ~major_c:(g1.Gc.major_collections - g0.Gc.major_collections))
      f

let time t name f =
  match t with
  | Noop -> f ()
  | Recording r ->
    let t0 = now_ns () in
    let m0 = Gc.minor_words () in
    let stop () =
      record r name ~dns:(now_ns () -. t0) ~dminor:(Gc.minor_words () -. m0)
        ~promoted:0.0 ~major:0.0 ~minor_c:0 ~major_c:0
    in
    (match f () with
    | () -> stop ()
    | exception e ->
      stop ();
      raise e)

let stats t =
  match t with
  | Noop -> []
  | Recording r ->
    Mutex.lock r.m;
    let l =
      Hashtbl.fold
        (fun name s acc ->
          {
            name;
            calls = s.r_calls;
            total_ns = s.r_total;
            max_ns = s.r_max;
            gc =
              {
                minor_words = s.r_minor;
                promoted_words = s.r_promoted;
                major_words = s.r_major;
                minor_collections = s.r_minor_c;
                major_collections = s.r_major_c;
              };
            hist = s.r_hist;
          }
          :: acc)
        r.tbl []
    in
    Mutex.unlock r.m;
    List.sort (fun a b -> String.compare a.name b.name) l

let to_json t =
  Json.List
    (List.map
       (fun s ->
         let pct p = Json.Float (p s.hist) in
         Json.Obj
           [
             ("span", Json.Str s.name);
             ("calls", Json.Int s.calls);
             ("total_ns", Json.Float s.total_ns);
             ("max_ns", Json.Float s.max_ns);
             ("p50_ns", pct Hist.p50);
             ("p90_ns", pct Hist.p90);
             ("p99_ns", pct Hist.p99);
             ("minor_words", Json.Float s.gc.minor_words);
             ("promoted_words", Json.Float s.gc.promoted_words);
             ("major_words", Json.Float s.gc.major_words);
             ("minor_collections", Json.Int s.gc.minor_collections);
             ("major_collections", Json.Int s.gc.major_collections);
           ])
       (stats t))
