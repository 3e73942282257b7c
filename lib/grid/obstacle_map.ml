open Pacor_geom

type t = { width : int; height : int; bits : Bytes.t; mutable count : int }

let create ~width ~height =
  if width <= 0 || height <= 0 then invalid_arg "Obstacle_map.create: empty grid";
  let nbytes = ((width * height) + 7) / 8 in
  { width; height; bits = Bytes.make nbytes '\000'; count = 0 }

let width t = t.width
let height t = t.height

let in_bounds t (p : Point.t) = p.x >= 0 && p.x < t.width && p.y >= 0 && p.y < t.height

let index t (p : Point.t) = (p.y * t.width) + p.x

let get_bit t i =
  Char.code (Bytes.unsafe_get t.bits (i lsr 3)) land (1 lsl (i land 7)) <> 0

let set_bit t i b =
  let byte = Char.code (Bytes.unsafe_get t.bits (i lsr 3)) in
  let mask = 1 lsl (i land 7) in
  let byte' = if b then byte lor mask else byte land lnot mask in
  Bytes.unsafe_set t.bits (i lsr 3) (Char.chr byte')

let blocked t p = (not (in_bounds t p)) || get_bit t (index t p)
let free t p = not (blocked t p)

(* Index variant for the routers' allocation-free inner loops: the caller
   guarantees [i] is a valid dense index (the index-based neighbour
   iteration only produces in-bounds cells). *)
let free_i t i = not (get_bit t i)

(* Eight cells per bitmap byte: entry [b] is the little-endian word whose
   byte [k] is 1 iff bit [k] of [b] is clear (cell free). *)
let free_words =
  Array.init 256 (fun b ->
    let w = ref 0L in
    for k = 0 to 7 do
      if b land (1 lsl k) = 0 then w := Int64.logor !w (Int64.shift_left 1L (8 * k))
    done;
    !w)

let fill_free t b =
  let n = t.width * t.height in
  if Bytes.length b < n then invalid_arg "Obstacle_map.fill_free: buffer smaller than the grid";
  let words = n lsr 3 in
  for k = 0 to words - 1 do
    Bytes.set_int64_le b (k lsl 3) free_words.(Char.code (Bytes.unsafe_get t.bits k))
  done;
  for i = words lsl 3 to n - 1 do
    Bytes.unsafe_set b i (if get_bit t i then '\000' else '\001')
  done

(* Eight cells per bitmap byte, as two packed bytes: entry [b] has the
   two-bit field [k] set to 1 iff bit [k] of [b] is clear (cell free). *)
let free_pairs =
  Array.init 256 (fun b ->
    List.fold_left (fun w k -> if b land (1 lsl k) = 0 then w lor (1 lsl (2 * k)) else w)
      0 [ 0; 1; 2; 3; 4; 5; 6; 7 ])

(* The last bitmap byte may hold fewer than eight cells: its fields past
   the grid are masked to 0, and a packed byte past [len] is not written. *)
let fill_free_packed t b v =
  let n = t.width * t.height in
  let len = (n + 3) lsr 2 in
  if Bytes.length b < len then invalid_arg "Obstacle_map.fill_free_packed: buffer too small";
  for k = 0 to ((n + 7) lsr 3) - 1 do
    let w = v * free_pairs.(Char.code (Bytes.unsafe_get t.bits k)) in
    let w = if (k + 1) lsl 3 > n then w land ((1 lsl (2 * (n land 7))) - 1) else w in
    Bytes.unsafe_set b (2 * k) (Char.unsafe_chr (w land 255));
    if (2 * k) + 1 < len then Bytes.unsafe_set b ((2 * k) + 1) (Char.unsafe_chr (w lsr 8))
  done

let block t p =
  if in_bounds t p then begin
    let i = index t p in
    if not (get_bit t i) then begin
      set_bit t i true;
      t.count <- t.count + 1
    end
  end

let unblock t p =
  if in_bounds t p then begin
    let i = index t p in
    if get_bit t i then begin
      set_bit t i false;
      t.count <- t.count - 1
    end
  end

let block_rect t (r : Rect.t) =
  for y = Int.max 0 r.y0 to Int.min (t.height - 1) r.y1 do
    for x = Int.max 0 r.x0 to Int.min (t.width - 1) r.x1 do
      let i = (y * t.width) + x in
      if not (get_bit t i) then begin
        set_bit t i true;
        t.count <- t.count + 1
      end
    done
  done

let block_points t ps = List.iter (block t) ps
let unblock_points t ps = List.iter (unblock t) ps
let blocked_count t = t.count
let copy t = { t with bits = Bytes.copy t.bits }

let equal a b = a.width = b.width && a.height = b.height && Bytes.equal a.bits b.bits

let blit ~src ~dst =
  if src.width <> dst.width || src.height <> dst.height then invalid_arg "Obstacle_map.blit";
  Bytes.blit src.bits 0 dst.bits 0 (Bytes.length src.bits);
  dst.count <- src.count

(* Eight bitmap bytes are XORed per step; only a differing word is taken
   apart, and only its differing cells pay a division for their column.
   The bits past the last cell are clear in every map. *)
let diff_columns a b marks ~limit =
  if a.width <> b.width || a.height <> b.height then invalid_arg "Obstacle_map.diff_columns";
  let len = Bytes.length a.bits and count = ref 0 and k = ref 0 in
  Bytes.fill marks 0 a.width '\000';
  while !k < len && !count <= limit do
    if !k + 8 <= len && Bytes.get_int64_le a.bits !k = Bytes.get_int64_le b.bits !k then k := !k + 8
    else begin
      let d = Char.code (Bytes.get a.bits !k) lxor Char.code (Bytes.get b.bits !k) in
      for bit = 0 to 7 do
        let x = ((!k lsl 3) + bit) mod a.width in
        if d land (1 lsl bit) <> 0 && Bytes.get marks x = '\000' then begin
          Bytes.set marks x '\001';
          incr count
        end
      done;
      incr k
    end
  done;
  !count

let iter_blocked t f =
  for y = 0 to t.height - 1 do
    for x = 0 to t.width - 1 do
      let p = Point.make x y in
      if get_bit t (index t p) then f p
    done
  done

(* Whole zero bytes (eight free cells) are skipped with one test, so a
   sparse map costs a pass over its bytes plus one call per blocked cell. *)
let iter_blocked_index t f =
  let n = t.width * t.height in
  for k = 0 to Bytes.length t.bits - 1 do
    let byte = Char.code (Bytes.unsafe_get t.bits k) in
    if byte <> 0 then
      for b = 0 to 7 do
        if byte land (1 lsl b) <> 0 then begin
          let i = (k lsl 3) + b in
          if i < n then f i
        end
      done
  done
