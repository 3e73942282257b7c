(* Reference binary min-heap for the tie-order oracle in test_graphs: the
   polymorphic, swap-based heap that [Pacor_graphs.Pqueue] replaced.
   [Pqueue] must pop the same (priority, element) stream, ties included,
   for any push/pop/clear sequence, because the searches' node order, and
   so their paths and counters, follow the heap's tie order. *)

type 'a t = { mutable prios : int array; mutable elems : 'a array; mutable len : int }

let create () = { prios = [||]; elems = [||]; len = 0 }
let is_empty t = t.len = 0
let size t = t.len
let clear t = t.len <- 0

let grow t x =
  let cap = Array.length t.prios in
  if t.len = cap then begin
    let ncap = max 16 (2 * cap) in
    let nprios = Array.make ncap 0 and nelems = Array.make ncap x in
    Array.blit t.prios 0 nprios 0 t.len;
    Array.blit t.elems 0 nelems 0 t.len;
    t.prios <- nprios;
    t.elems <- nelems
  end

let swap t i j =
  let p = t.prios.(i) and e = t.elems.(i) in
  t.prios.(i) <- t.prios.(j);
  t.elems.(i) <- t.elems.(j);
  t.prios.(j) <- p;
  t.elems.(j) <- e

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if t.prios.(i) < t.prios.(parent) then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.len && t.prios.(l) < t.prios.(!smallest) then smallest := l;
  if r < t.len && t.prios.(r) < t.prios.(!smallest) then smallest := r;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let push t ~prio x =
  grow t x;
  t.prios.(t.len) <- prio;
  t.elems.(t.len) <- x;
  t.len <- t.len + 1;
  sift_up t (t.len - 1)

let pop t =
  if t.len = 0 then None
  else begin
    let prio = t.prios.(0) and x = t.elems.(0) in
    t.len <- t.len - 1;
    if t.len > 0 then begin
      t.prios.(0) <- t.prios.(t.len);
      t.elems.(0) <- t.elems.(t.len);
      sift_down t 0
    end;
    Some (prio, x)
  end
