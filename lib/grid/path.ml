open Pacor_geom

(* Points are stored as an array for O(1) nth; a point set gives O(log n)
   membership. Both are built once at construction. *)
type t = { pts : Point.t array; set : Point.Set.t }

let check_points = function
  | [] -> Error "empty path"
  | first :: rest ->
    let rec go prev seen = function
      | [] -> Ok seen
      | p :: tl ->
        if Point.manhattan prev p <> 1 then Error "non-adjacent consecutive points"
        else if Point.Set.mem p seen then Error "repeated vertex"
        else go p (Point.Set.add p seen) tl
    in
    go first (Point.Set.singleton first) rest

let of_points pts =
  match check_points pts with
  | Error msg -> invalid_arg ("Path.of_points: " ^ msg)
  | Ok set -> { pts = Array.of_list pts; set }

let points t = Array.to_list t.pts
let source t = t.pts.(0)
let target t = t.pts.(Array.length t.pts - 1)
let length t = Array.length t.pts - 1
let is_trivial t = length t = 0
let mem t p = Point.Set.mem p t.set
let iter f t = Array.iter f t.pts

let nth t i =
  if i < 0 || i >= Array.length t.pts then invalid_arg "Path.nth: out of range";
  t.pts.(i)

let replace_segment t ~from_idx ~to_idx seg =
  let n = Array.length t.pts in
  if from_idx < 0 || to_idx >= n || from_idx > to_idx then
    invalid_arg "Path.replace_segment: bad indices";
  if not (Point.equal (source seg) t.pts.(from_idx)) then
    invalid_arg "Path.replace_segment: segment source mismatch";
  if not (Point.equal (target seg) t.pts.(to_idx)) then
    invalid_arg "Path.replace_segment: segment target mismatch";
  let prefix = Array.to_list (Array.sub t.pts 0 from_idx) in
  let suffix =
    if to_idx + 1 >= n then [] else Array.to_list (Array.sub t.pts (to_idx + 1) (n - to_idx - 1))
  in
  of_points (prefix @ points seg @ suffix)

let shares_vertex a b =
  (* Iterate over the smaller set. *)
  let small, large =
    if Point.Set.cardinal a.set <= Point.Set.cardinal b.set then (a.set, b.set)
    else (b.set, a.set)
  in
  Point.Set.exists (fun p -> Point.Set.mem p large) small

let equal a b =
  Array.length a.pts = Array.length b.pts
  && Array.for_all2 Point.equal a.pts b.pts
