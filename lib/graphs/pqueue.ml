type t = { mutable prios : int array; mutable elems : int array; mutable len : int }

let create () = { prios = [||]; elems = [||]; len = 0 }
let is_empty t = t.len = 0
let size t = t.len
let clear t = t.len <- 0

let grow t =
  let ncap = max 16 (2 * t.len) in
  let nprios = Array.make ncap 0 and nelems = Array.make ncap 0 in
  Array.blit t.prios 0 nprios 0 t.len;
  Array.blit t.elems 0 nelems 0 t.len;
  t.prios <- nprios;
  t.elems <- nelems

(* Hole-based sifts: entries move into the hole one step at a time and the
   moving entry is written once, at the slot returned. Every index read is
   below [t.len], which never exceeds the capacity. The annotations keep
   the sifts monomorphic: int compares and no write barrier. *)
let rec hole_up (prios : int array) (elems : int array) (prio : int) i =
  if i = 0 then i
  else begin
    let parent = (i - 1) lsr 1 in
    let pp = Array.unsafe_get prios parent in
    if prio < pp then begin
      Array.unsafe_set prios i pp;
      Array.unsafe_set elems i (Array.unsafe_get elems parent);
      hole_up prios elems prio parent
    end
    else i
  end

(* Take the left child unless the right one is strictly smaller, and
   descend while that child is strictly smaller than the entry: the same
   tie order as a swap-based sift. *)
let rec hole_down (prios : int array) (elems : int array) len (prio : int) i =
  let l = (2 * i) + 1 in
  if l >= len then i
  else begin
    let r = l + 1 in
    let c = if r < len && Array.unsafe_get prios r < Array.unsafe_get prios l then r else l in
    let pc = Array.unsafe_get prios c in
    if pc < prio then begin
      Array.unsafe_set prios i pc;
      Array.unsafe_set elems i (Array.unsafe_get elems c);
      hole_down prios elems len prio c
    end
    else i
  end

let push t ~prio x =
  if t.len = Array.length t.prios then grow t;
  let i = hole_up t.prios t.elems prio t.len in
  t.prios.(i) <- prio;
  t.elems.(i) <- x;
  t.len <- t.len + 1

(* Re-seat the last entry from the root hole down. *)
let remove_top t =
  let len = t.len - 1 in
  t.len <- len;
  if len > 0 then begin
    let prio = t.prios.(len) and x = t.elems.(len) in
    let i = hole_down t.prios t.elems len prio 0 in
    t.prios.(i) <- prio;
    t.elems.(i) <- x
  end

let pop t =
  if t.len = 0 then None
  else begin
    let prio = t.prios.(0) and x = t.elems.(0) in
    remove_top t;
    Some (prio, x)
  end

(* Allocation-free variant for the search inner loops: no option/tuple
   box per pop. Callers check [is_empty] first. *)
let pop_top t =
  if t.len = 0 then invalid_arg "Pqueue.pop_top: empty queue"
  else begin
    let x = t.elems.(0) in
    remove_top t;
    x
  end
