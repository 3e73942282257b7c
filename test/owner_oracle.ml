(* Test oracle for the owner layer ([Pacor_route.Workspace]'s cell
   owners): the [Point.Set] unions the stages built before the layer
   replaced them. "Every cell but cluster r's" was the union of the
   other clusters' claimed cells and escape paths; the layer must hold
   exactly the union of every cluster's, each cell under its cluster's
   id. *)

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

(* [Ok ()] when the workspace's layer holds exactly the assignments'
   cells, each under its cluster's id. *)
let check ws assignments =
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
      | None -> Ok ()
      | Some ((p, id), (_, id')) ->
        Error (Format.asprintf "%a held by %d, the oracle says %d" Point.pp p id' id)
