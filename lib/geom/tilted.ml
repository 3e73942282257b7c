type coord = { u : int; v : int }
type t = { ulo : int; uhi : int; vlo : int; vhi : int }

let coord_of_point (p : Point.t) =
  let x = 2 * p.x and y = 2 * p.y in
  { u = x + y; v = x - y }

let make ~ulo ~uhi ~vlo ~vhi =
  if ulo > uhi || vlo > vhi then invalid_arg "Tilted.make: empty region"
  else { ulo; uhi; vlo; vhi }

let of_point p =
  let c = coord_of_point p in
  { ulo = c.u; uhi = c.u; vlo = c.v; vhi = c.v }

(* Gap between intervals [alo,ahi] and [blo,bhi]; 0 when they overlap. *)
let gap alo ahi blo bhi = Int.max 0 (Int.max (blo - ahi) (alo - bhi))

let dist a b = Int.max (gap a.ulo a.uhi b.ulo b.uhi) (gap a.vlo a.vhi b.vlo b.vhi)

let dist_coord c t = Int.max (gap c.u c.u t.ulo t.uhi) (gap c.v c.v t.vlo t.vhi)
let coord_dist a b = Int.max (abs (a.u - b.u)) (abs (a.v - b.v))

let inflate t r =
  if r < 0 then invalid_arg "Tilted.inflate: negative radius"
  else { ulo = t.ulo - r; uhi = t.uhi + r; vlo = t.vlo - r; vhi = t.vhi + r }

let inter a b =
  let ulo = Int.max a.ulo b.ulo and uhi = Int.min a.uhi b.uhi in
  let vlo = Int.max a.vlo b.vlo and vhi = Int.min a.vhi b.vhi in
  if ulo <= uhi && vlo <= vhi then Some { ulo; uhi; vlo; vhi } else None

let clamp lo hi x = if x < lo then lo else if x > hi then hi else x
let nearest_in t c = { u = clamp t.ulo t.uhi c.u; v = clamp t.vlo t.vhi c.v }

let center t = { u = t.ulo + ((t.uhi - t.ulo) / 2); v = t.vlo + ((t.vhi - t.vlo) / 2) }

let corners t =
  [ { u = t.ulo; v = t.vlo }; { u = t.ulo; v = t.vhi };
    { u = t.uhi; v = t.vlo }; { u = t.uhi; v = t.vhi } ]

let sample t n =
  if n <= 0 then []
  else begin
    let mid lo hi = lo + ((hi - lo) / 2) in
    let candidates =
      center t :: corners t
      @ [ { u = mid t.ulo t.uhi; v = t.vlo }; { u = mid t.ulo t.uhi; v = t.vhi };
          { u = t.ulo; v = mid t.vlo t.vhi }; { u = t.uhi; v = mid t.vlo t.vhi } ]
    in
    let rec dedup seen = function
      | [] -> []
      | c :: rest ->
        if List.exists (fun s -> s.u = c.u && s.v = c.v) seen then dedup seen rest
        else c :: dedup (c :: seen) rest
    in
    let distinct = dedup [] candidates in
    List.filteri (fun i _ -> i < n) distinct
  end

(* A tilted point corresponds to grid point (x, y) with 4x = u + v and
   4y = u - v. We try the floor/ceil combinations of both divisions and keep
   the closest (ties broken deterministically by candidate order: x before
   y, floor before ceil). *)
let nearest_grid_point c =
  let div_floor a b = if a >= 0 then a / b else -(((-a) + b - 1) / b) in
  let qx = div_floor (c.u + c.v) 4 and qy = div_floor (c.u - c.v) 4 in
  let best_x = ref qx and best_y = ref qy and best_d = ref max_int in
  for x = qx to qx + 1 do
    for y = qy to qy + 1 do
      (* [coord_dist c (coord_of_point (x, y))] without the records. *)
      let d = Int.max (abs (c.u - (2 * (x + y)))) (abs (c.v - (2 * (x - y)))) in
      if d < !best_d then begin
        best_x := x;
        best_y := y;
        best_d := d
      end
    done
  done;
  Point.make !best_x !best_y

let grid_round_error c = coord_dist c (coord_of_point (nearest_grid_point c))

let pp ppf t = Format.fprintf ppf "u:[%d,%d] v:[%d,%d]" t.ulo t.uhi t.vlo t.vhi
