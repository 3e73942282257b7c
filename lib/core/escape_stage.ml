open Pacor_geom


type assignment = {
  routed : Routed.t;
  escape : Pacor_flow.Escape.routed option;
}

type outcome = {
  assignments : assignment list;
  failed_clusters : int list;
  escape_length : int;
}

(* One cluster's escape in isolation is a multi-source shortest path — no
   need for the full min-cost-flow network the global stage uses. *)
let single ?workspace ~grid ~claimed ~pins ~start_cells () =
  match pins with
  | [] -> None
  | _ :: _ ->
    (* Boundary cells — pins included — are never transit space: A* exempts
       the search's own targets, and it stops at the first target popped, so
       the path cannot run {e through} one candidate pin on its way to
       another (which a later escape might then be assigned). *)
    let spec =
      Pacor_route.Astar.point_spec ~grid
        ~usable:(fun p ->
          Pacor_grid.Routing_grid.free grid p
          && (not (Point.Set.mem p claimed))
          && not (Pacor_grid.Routing_grid.on_boundary grid p))
        ~extra_cost:(fun _ -> 0)
    in
    (match
       Pacor_route.Astar.search ?workspace ~grid ~spec ~sources:start_cells ~targets:pins ()
     with
     | Some path ->
       Some
         { Pacor_flow.Escape.idx = 0;
           start_cell = Pacor_grid.Path.source path;
           pin = Pacor_grid.Path.target path;
           path }
     | None -> None)

let run ?alive ?sched ?workspace ~grid ~pins routed_clusters =
  let claimed =
    List.fold_left
      (fun acc (r : Routed.t) -> Point.Set.union acc r.claimed)
      Point.Set.empty routed_clusters
  in
  let requests =
    List.mapi
      (fun i (r : Routed.t) ->
         { Pacor_flow.Escape.cluster_idx = i; start_cells = Routed.start_cells r })
      routed_clusters
  in
  match
    Pacor_flow.Escape.route ?alive ?sched ?workspace ~grid ~claimed ~pins requests
  with
  | Error _ as e -> e
  | Ok out ->
    let by_idx = Hashtbl.create 16 in
    List.iter
      (fun (r : Pacor_flow.Escape.routed) -> Hashtbl.replace by_idx r.idx r)
      out.routed;
    let assignments =
      List.mapi
        (fun i r -> { routed = r; escape = Hashtbl.find_opt by_idx i })
        routed_clusters
    in
    let failed_clusters =
      List.filter_map
        (fun a ->
           if a.escape = None then Some a.routed.Routed.cluster.Pacor_valve.Cluster.id
           else None)
        assignments
    in
    Ok { assignments; failed_clusters; escape_length = out.total_length }
