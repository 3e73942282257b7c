open Pacor_geom
open Pacor_grid
open Pacor_valve

type outcome = {
  routed : Routed.t list;
  declustered : int;
}

let route_all ?workspace ~grid ~valve_cells ~already_claimed ~fresh_id clusters =
  let static = Routing_grid.obstacles grid in
  let work = Obstacle_map.copy static in
  Point.Set.iter (fun p -> Obstacle_map.block work p) already_claimed;
  Point.Set.iter (fun p -> Obstacle_map.block work p) valve_cells;
  let order =
    List.sort
      (fun (a : Cluster.t) b ->
         let sa = Cluster.size a and sb = Cluster.size b in
         if sa <> sb then Int.compare sb sa else Int.compare a.id b.id)
      clusters
  in
  let declustered = ref 0 in
  let route_one (cluster : Cluster.t) =
    let own = Cluster.positions cluster in
    (* The cluster's own valves are legal cells for its channels. *)
    List.iter (Obstacle_map.unblock work) own;
    let reblock_foreign () =
      List.iter
        (fun p -> if Point.Set.mem p valve_cells then Obstacle_map.block work p)
        own
    in
    match Pacor_route.Mst_router.route ?workspace ~grid ~obstacles:work own with
    | Some mst ->
      reblock_foreign ();
      Point.Set.iter (fun p -> Obstacle_map.block work p) mst.claimed;
      [ Routed.make_plain cluster ~paths:mst.paths ~claimed:mst.claimed ]
    | None ->
      reblock_foreign ();
      incr declustered;
      let singles = Cluster.split cluster ~fresh_id in
      List.map Routed.make_singleton singles
  in
  let routed = List.concat_map route_one order in
  { routed; declustered = !declustered }

let route_one ?workspace ~grid ~valve_cells ~already_claimed ~fresh_id cluster =
  (route_all ?workspace ~grid ~valve_cells ~already_claimed ~fresh_id [ cluster ]).routed
