type t = { parent : int array; rank : int array; mutable count : int }

let create n =
  if n < 0 then invalid_arg "Union_find.create: negative size";
  { parent = Array.init n (fun i -> i); rank = Array.make n 0; count = n }

let rec find t i =
  let p = t.parent.(i) in
  if p = i then i
  else begin
    let root = find t p in
    t.parent.(i) <- root;
    root
  end

let union t a b =
  let ra = find t a and rb = find t b in
  if ra = rb then false
  else begin
    let ra, rb = if t.rank.(ra) < t.rank.(rb) then (rb, ra) else (ra, rb) in
    t.parent.(rb) <- ra;
    if t.rank.(ra) = t.rank.(rb) then t.rank.(ra) <- t.rank.(ra) + 1;
    t.count <- t.count - 1;
    true
  end

let count t = t.count
