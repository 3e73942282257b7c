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
let gap alo ahi blo bhi = max 0 (max (blo - ahi) (alo - bhi))

let dist a b = max (gap a.ulo a.uhi b.ulo b.uhi) (gap a.vlo a.vhi b.vlo b.vhi)

let dist_coord c t = max (gap c.u c.u t.ulo t.uhi) (gap c.v c.v t.vlo t.vhi)
let coord_dist a b = max (abs (a.u - b.u)) (abs (a.v - b.v))

let inflate t r =
  if r < 0 then invalid_arg "Tilted.inflate: negative radius"
  else { ulo = t.ulo - r; uhi = t.uhi + r; vlo = t.vlo - r; vhi = t.vhi + r }

let inter a b =
  let ulo = max a.ulo b.ulo and uhi = min a.uhi b.uhi in
  let vlo = max a.vlo b.vlo and vhi = min a.vhi b.vhi in
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
   the closest (ties broken deterministically by candidate order). *)
let nearest_grid_point c =
  let div_floor a b = if a >= 0 then a / b else -(((-a) + b - 1) / b) in
  let xs =
    let q = div_floor (c.u + c.v) 4 in
    [ q; q + 1 ]
  and ys =
    let q = div_floor (c.u - c.v) 4 in
    [ q; q + 1 ]
  in
  let best = ref None in
  let consider x y =
    let d = coord_dist c (coord_of_point (Point.make x y)) in
    match !best with
    | Some (_, bd) when bd <= d -> ()
    | _ -> best := Some (Point.make x y, d)
  in
  List.iter (fun x -> List.iter (fun y -> consider x y) ys) xs;
  match !best with Some (p, _) -> p | None -> assert false

let grid_round_error c = coord_dist c (coord_of_point (nearest_grid_point c))
let is_on_grid c = grid_round_error c = 0

let pp ppf t = Format.fprintf ppf "u:[%d,%d] v:[%d,%d]" t.ulo t.uhi t.vlo t.vhi
