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


let index t (p : Point.t) = (p.y * t.width) + p.x
let point_of_index t i = Point.make (i mod t.width) (i / t.width)
let free_i t i = Obstacle_map.free_i t.obstacles i

let on_boundary_i t i =
  let x = i mod t.width and y = i / t.width in
  x = 0 || y = 0 || x = t.width - 1 || y = t.height - 1

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
