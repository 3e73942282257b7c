open Pacor_geom
open Pacor_grid

let cost_scale = 1000

type spec = {
  usable : int -> bool;
  extra_cost : int -> int;
}

let obstacle_spec obstacles =
  { usable = (fun i -> Obstacle_map.free_i obstacles i); extra_cost = (fun _ -> 0) }

let point_spec ~grid ~usable ~extra_cost =
  {
    usable = (fun i -> usable (Routing_grid.point_of_index grid i));
    extra_cost = (fun i -> extra_cost (Routing_grid.point_of_index grid i));
  }

let attempt ws ~grid ~spec ~sources ~targets =
  let n = Routing_grid.cells grid in
  let width = Routing_grid.width grid in
  (* Admissible heuristic: Manhattan distance to the bounding box of the
     target set (0 inside the box), in cost_scale units. The box spans
     the {e raw} target list — out-of-bounds targets widen it exactly as
     they did in the point-based implementation, keeping expansion order
     (and therefore returned paths) unchanged. *)
  let box = Rect.of_point_list targets in
  let h i =
    let x = i mod width and y = i / width in
    let dx = max 0 (max (box.Rect.x0 - x) (x - box.Rect.x1)) in
    let dy = max 0 (max (box.Rect.y0 - y) (y - box.Rect.y1)) in
    (dx + dy) * cost_scale
  in
  Workspace.begin_search ws ~cells:n;
  let idx p = Routing_grid.index grid p in
  (* Out-of-bounds sources/targets can never be reached or entered, so
     skipping them preserves the old Point.Set semantics. *)
  List.iter
    (fun p -> if Routing_grid.in_bounds grid p then Workspace.mark_target ws (idx p))
    targets;
  List.iter
    (fun p ->
       if Routing_grid.in_bounds grid p then begin
         let i = idx p in
         Workspace.mark_source ws i;
         Workspace.set_dist ws i 0;
         Workspace.push ws ~prio:(h i) i
       end)
    sources;
  let rec reconstruct i acc =
    let p = Routing_grid.point_of_index grid i in
    let j = Workspace.parent ws i in
    if j = -1 then p :: acc else reconstruct j (p :: acc)
  in
  let stats = Workspace.stats ws in
  (* One closure for the whole search, reading the current expansion
     through mutable cells — no per-pop closure or neighbour list. *)
  let cur = ref 0 and cur_dist = ref 0 in
  let relax j =
    Search_stats.touched stats;
    if
      (spec.usable j || Workspace.is_target ws j || Workspace.is_source ws j)
      && not (Workspace.closed ws j)
    then begin
      Search_stats.relaxed stats;
      let nd = !cur_dist + cost_scale + spec.extra_cost j in
      if nd < Workspace.dist ws j then begin
        Workspace.set_dist ws j nd;
        Workspace.set_parent ws j !cur;
        Workspace.push ws ~prio:(nd + h j) j
      end
    end
  in
  let rec loop () =
    let i = Workspace.pop_cell ws in
    if i < 0 then None
    else if Workspace.closed ws i then loop ()
    else begin
      Workspace.close ws i;
      if Workspace.is_target ws i then Some (Path.of_points (reconstruct i []))
      else begin
        cur := i;
        cur_dist := Workspace.dist ws i;
        Routing_grid.iter_neighbours4 grid i relax;
        loop ()
      end
    end
  in
  loop ()

let search ?workspace ~grid ~spec ~sources ~targets () =
  match sources, targets with
  | [], _ | _, [] -> None
  | _ :: _, _ :: _ ->
    let ws = match workspace with Some ws -> ws | None -> Workspace.create () in
    attempt ws ~grid ~spec ~sources ~targets

let shortest ?workspace ~grid ~obstacles a b =
  search ?workspace ~grid ~spec:(obstacle_spec obstacles) ~sources:[ a ] ~targets:[ b ] ()
