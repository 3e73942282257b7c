type t = { x0 : int; y0 : int; x1 : int; y1 : int }

let make ~x0 ~y0 ~x1 ~y1 =
  { x0 = Int.min x0 x1; y0 = Int.min y0 y1; x1 = Int.max x0 x1; y1 = Int.max y0 y1 }

let of_points (a : Point.t) (b : Point.t) = make ~x0:a.x ~y0:a.y ~x1:b.x ~y1:b.y

let of_point_list = function
  | [] -> invalid_arg "Rect.of_point_list: empty"
  | (p : Point.t) :: rest ->
    let f (r : t) (q : Point.t) =
      { x0 = min r.x0 q.x; y0 = min r.y0 q.y; x1 = max r.x1 q.x; y1 = max r.y1 q.y }
    in
    List.fold_left f { x0 = p.x; y0 = p.y; x1 = p.x; y1 = p.y } rest

let contains r (p : Point.t) = r.x0 <= p.x && p.x <= r.x1 && r.y0 <= p.y && p.y <= r.y1
let width r = r.x1 - r.x0
let height r = r.y1 - r.y0
let cells r = (width r + 1) * (height r + 1)

let inter a b =
  let x0 = max a.x0 b.x0 and y0 = max a.y0 b.y0 in
  let x1 = min a.x1 b.x1 and y1 = min a.y1 b.y1 in
  if x0 <= x1 && y0 <= y1 then Some { x0; y0; x1; y1 } else None

let overlap_cells a b = match inter a b with None -> 0 | Some r -> cells r
let equal a b = a.x0 = b.x0 && a.y0 = b.y0 && a.x1 = b.x1 && a.y1 = b.y1
let pp ppf r = Format.fprintf ppf "[%d,%d]x[%d,%d]" r.x0 r.x1 r.y0 r.y1

let points r =
  let acc = ref [] in
  for y = r.y1 downto r.y0 do
    for x = r.x1 downto r.x0 do
      acc := Point.make x y :: !acc
    done
  done;
  !acc
