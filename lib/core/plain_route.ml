open Pacor_geom
open Pacor_grid
open Pacor_valve

type outcome = {
  routed : Routed.t list;
  declustered : int;
}

(* Route [cluster] on the private map [work], which blocks everything it
   must avoid, including its own valves (every valve is a reserved cell);
   its MST's cells are blocked there for whatever is routed next. *)
let route_on ~workspace ~grid ~fresh_id work declustered (cluster : Cluster.t) =
  let own = Cluster.positions cluster in
  (* The cluster's own valves are legal cells for its channels. *)
  List.iter (Obstacle_map.unblock work) own;
  let result = Pacor_route.Mst_router.route ~workspace ~grid ~obstacles:work own in
  List.iter (Obstacle_map.block work) own;
  match result with
  | Some mst ->
    Point.Set.iter (fun p -> Obstacle_map.block work p) mst.claimed;
    [ Routed.make_plain cluster ~paths:mst.paths ~claimed:mst.claimed ]
  | None ->
    incr declustered;
    let singles = Cluster.split cluster ~fresh_id in
    List.map Routed.make_singleton singles

let route_all ?(fence = []) ~workspace ~grid ~fresh_id clusters =
  let work = Obstacle_map.copy (Pacor_route.Workspace.occupied workspace) in
  List.iter (Obstacle_map.block work) fence;
  let order =
    List.sort
      (fun (a : Cluster.t) b ->
         let sa = Cluster.size a and sb = Cluster.size b in
         if sa <> sb then Int.compare sb sa else Int.compare a.id b.id)
      clusters
  in
  let declustered = ref 0 in
  let routed = List.concat_map (route_on ~workspace ~grid ~fresh_id work declustered) order in
  { routed; declustered = !declustered }
