type 'a t = {
  mutable prio : int array;
  mutable data : 'a option array;
  mutable len : int;
}

let create () = { prio = Array.make 16 0; data = Array.make 16 None; len = 0 }
let size h = h.len

let grow h =
  let cap = Array.length h.prio in
  let prio = Array.make (2 * cap) 0 and data = Array.make (2 * cap) None in
  Array.blit h.prio 0 prio 0 h.len;
  Array.blit h.data 0 data 0 h.len;
  h.prio <- prio;
  h.data <- data

let swap h i j =
  let p = h.prio.(i) and d = h.data.(i) in
  h.prio.(i) <- h.prio.(j);
  h.data.(i) <- h.data.(j);
  h.prio.(j) <- p;
  h.data.(j) <- d

let rec sift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if h.prio.(i) < h.prio.(parent) then begin
      swap h i parent;
      sift_up h parent
    end
  end

let rec sift_down h i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let best = ref i in
  if l < h.len && h.prio.(l) < h.prio.(!best) then best := l;
  if r < h.len && h.prio.(r) < h.prio.(!best) then best := r;
  if !best <> i then begin
    swap h i !best;
    sift_down h !best
  end

let push h ~prio x =
  if h.len = Array.length h.prio then grow h;
  h.prio.(h.len) <- prio;
  h.data.(h.len) <- Some x;
  h.len <- h.len + 1;
  sift_up h (h.len - 1)

let peek h =
  if h.len = 0 then None
  else
    match h.data.(0) with
    | Some x -> Some (h.prio.(0), x)
    | None -> assert false

let pop h =
  match peek h with
  | None -> None
  | Some _ as result ->
    h.len <- h.len - 1;
    let r =
      match result with
      | Some (p, x) -> Some (p, x)
      | None -> assert false
    in
    if h.len > 0 then begin
      h.prio.(0) <- h.prio.(h.len);
      h.data.(0) <- h.data.(h.len)
    end;
    h.data.(h.len) <- None;
    sift_down h 0;
    r
