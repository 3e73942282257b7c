(* Test oracle for the owner layer ([Pacor_route.Workspace]'s cell
   owners): the [Point.Set] unions the stages built before the layer
   replaced them. "Every cell but cluster r's" was the union of the
   other clusters' claimed cells and escape paths; the layer must hold
   exactly the union of every cluster's, each cell under its cluster's
   id, and its map must block no interior cell but the grid's obstacles
   and those. *)

open Pacor_geom
open Pacor_grid
open Pacor

(* The clusters' claimed cells. *)
let claims_of rs = List.fold_left (fun acc (r : Routed.t) -> Point.Set.union acc r.claimed) Point.Set.empty rs

let escape_cells (a : Escape_stage.assignment) =
  match a.escape with
  | None -> Point.Set.empty
  | Some e -> Point.Set.of_list (Path.points e.Pacor_flow.Escape.path)

(* The union of the assignments' claims and escape paths. *)
let footprints assignments =
  List.fold_left
    (fun acc a -> Point.Set.union acc (escape_cells a))
    (claims_of (List.map (fun (a : Escape_stage.assignment) -> a.routed) assignments))
    assignments

(* Cell -> owner, sorted by cell; [Error] names a cell two clusters
   hold. *)
let owners assignments =
  let tbl = Hashtbl.create 256 in
  let clash = ref None in
  List.iter
    (fun (a : Escape_stage.assignment) ->
       let id = a.routed.Routed.cluster.Pacor_valve.Cluster.id in
       Point.Set.iter
         (fun p ->
            match Hashtbl.find_opt tbl p with
            | Some id' when id' <> id -> clash := Some (p, id', id)
            | Some _ | None -> Hashtbl.replace tbl p id)
         (Point.Set.union a.routed.Routed.claimed (escape_cells a)))
    assignments;
  match !clash with
  | Some (p, a, b) ->
    Error (Format.asprintf "clusters %d and %d both hold %a" a b Point.pp p)
  | None ->
    Ok (List.sort compare (Hashtbl.fold (fun p id acc -> (p, id) :: acc) tbl []))

let layer ws =
  Pacor_route.Workspace.fold_owned ws (fun p id acc -> (p, id) :: acc) [] |> List.sort compare

(* The first interior cell where the layer's [occupied] map disagrees
   with [grid]'s static obstacles plus the held [cells]: a reserved cell
   no cluster holds, or a held cell the map lets through. The escape
   solver reads the map as the held cells, so they must agree. *)
let unheld_interior ~grid ws cells =
  let occupied = Pacor_route.Workspace.occupied ws in
  let w = Routing_grid.width grid and h = Routing_grid.height grid in
  let bad = ref None in
  for y = h - 2 downto 1 do
    for x = w - 2 downto 1 do
      let p = Point.make x y in
      if Obstacle_map.blocked occupied p <> (Routing_grid.blocked grid p || Point.Set.mem p cells)
      then bad := Some p
    done
  done;
  !bad

(* [Ok ()] when the workspace's layer holds exactly the assignments'
   cells, each under its cluster's id, and its map blocks exactly the
   grid's obstacles, those cells and [retired] inside the ring.
   [retired] is for the cells of valves repair quarantined after its
   last escape solve: they stay reserved with no cluster to hold them. *)
let check ~grid ?(retired = Point.Set.empty) ws assignments =
  match owners assignments with
  | Error _ as e -> e
  | Ok want ->
    let got = layer ws in
    let cells = Point.Set.of_list (List.map fst got) in
    if not (Point.Set.equal cells (footprints assignments)) then
      Error
        (Printf.sprintf "layer holds %d cells, the union %d" (Point.Set.cardinal cells)
           (Point.Set.cardinal (footprints assignments)))
    else
      match List.find_opt (fun (w, g) -> w <> g) (List.combine want got) with
      | Some ((p, id), (_, id')) ->
        Error (Format.asprintf "%a held by %d, the oracle says %d" Point.pp p id' id)
      | None ->
        let cells = Point.Set.union cells retired in
        match unheld_interior ~grid ws cells with
        | None -> Ok ()
        | Some p ->
          Error
            (Format.asprintf "%a is %s in the occupied map, but %s" Point.pp p
               (if Obstacle_map.blocked (Pacor_route.Workspace.occupied ws) p then "blocked"
                else "free")
               (if Routing_grid.blocked grid p || Point.Set.mem p cells then
                  "an obstacle or held"
                else "neither an obstacle nor held"))
