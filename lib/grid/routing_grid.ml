open Pacor_geom

type t = { width : int; height : int; obstacles : Obstacle_map.t }

let create ~width ~height ?(obstacles = []) () =
  let map = Obstacle_map.create ~width ~height in
  List.iter (Obstacle_map.block_rect map) obstacles;
  { width; height; obstacles = map }

let width t = t.width
let height t = t.height
let cells t = t.width * t.height
let obstacles t = t.obstacles

let with_extra_obstacles t points =
  let map = Obstacle_map.copy t.obstacles in
  Obstacle_map.block_points map points;
  { t with obstacles = map }

let without_obstacles t points =
  let map = Obstacle_map.copy t.obstacles in
  Obstacle_map.unblock_points map points;
  { t with obstacles = map }
let fresh_work_map t = Obstacle_map.copy t.obstacles
let in_bounds t p = Obstacle_map.in_bounds t.obstacles p
let blocked t p = Obstacle_map.blocked t.obstacles p
let free t p = Obstacle_map.free t.obstacles p

let blocked_work_map t sets =
  let work = fresh_work_map t in
  List.iter (Point.Set.iter (Obstacle_map.block work)) sets;
  work

let on_boundary t (p : Point.t) =
  in_bounds t p && (p.x = 0 || p.y = 0 || p.x = t.width - 1 || p.y = t.height - 1)

let boundary_points t =
  let acc = ref [] in
  (* Walk the ring deterministically: bottom row, right column, top row,
     left column, without repeating corners. *)
  for x = 0 to t.width - 1 do
    acc := Point.make x 0 :: !acc
  done;
  for y = 1 to t.height - 1 do
    acc := Point.make (t.width - 1) y :: !acc
  done;
  if t.height > 1 then
    for x = t.width - 2 downto 0 do
      acc := Point.make x (t.height - 1) :: !acc
    done;
  if t.width > 1 then
    for y = t.height - 2 downto 1 do
      acc := Point.make 0 y :: !acc
    done;
  List.rev !acc


let nearest_free t p =
  let max_radius = t.width + t.height in
  let rec search r =
    if r > max_radius then None
    else begin
      let candidates = List.filter (fun q -> in_bounds t q && free t q) (Point.ring p r) in
      match candidates with
      | [] -> search (r + 1)
      | _ :: _ ->
        (* Deterministic tie-break: minimal Manhattan distance, then point order. *)
        let better a b =
          let da = Point.manhattan p a and db = Point.manhattan p b in
          if da <> db then da < db else Point.compare a b < 0
        in
        let best = List.fold_left (fun acc q ->
          match acc with Some b when better b q -> acc | _ -> Some q) None candidates
        in
        best
    end
  in
  search 0

let index t (p : Point.t) = (p.y * t.width) + p.x
let point_of_index t i = Point.make (i mod t.width) (i / t.width)
let free_i t i = Obstacle_map.free_i t.obstacles i

let on_boundary_i t i =
  let x = i mod t.width and y = i / t.width in
  x = 0 || y = 0 || x = t.width - 1 || y = t.height - 1

(* Baseline transit mask for dense role arrays: byte [i] becomes 1 iff
   cell [i] is statically free and off the boundary ring, 0 otherwise.
   The free mask comes eight cells at a time; the ring is cleared after. *)
let fill_interior_free t b =
  let w = t.width and h = t.height in
  if Bytes.length b < w * h then
    invalid_arg "Routing_grid.fill_interior_free: buffer smaller than the grid";
  Obstacle_map.fill_free t.obstacles b;
  Bytes.fill b 0 w '\000';
  Bytes.fill b ((h - 1) * w) w '\000';
  for y = 1 to h - 2 do
    Bytes.unsafe_set b (y * w) '\000';
    Bytes.unsafe_set b ((y * w) + w - 1) '\000'
  done

(* Packed variant of [fill_interior_free]: role 1 for free interior cells,
   role 0 elsewhere, two bits per cell. *)
let fill_interior_free_packed t pk =
  let w = t.width and h = t.height in
  if Packed_roles.length pk < w * h then
    invalid_arg "Routing_grid.fill_interior_free_packed: layer smaller than the grid";
  Packed_roles.clear pk;
  for y = 1 to h - 2 do
    let row = y * w in
    for x = 1 to w - 2 do
      if Obstacle_map.free_i t.obstacles (row + x) then Packed_roles.set pk (row + x) 1
    done
  done

(* Row-stride neighbour iteration for the search inner loops: no
   intermediate [Point.t] list, only in-bounds cells, and the emission
   order matches [Point.neighbours4] ([x+1; x-1; y+1; y-1]) so that
   heap push order — and therefore deterministic tie-breaking — is
   unchanged relative to the point-based loop. *)
let[@inline] iter_neighbours4 t i f =
  let w = t.width in
  let x = i mod w in
  if x + 1 < w then f (i + 1);
  if x > 0 then f (i - 1);
  if i + w < w * t.height then f (i + w);
  if i >= w then f (i - w)
