open Pacor_geom
open Pacor_grid

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
       another (which a later escape might then be assigned). The search
       reads a byte mask (free interior cells, minus [claimed]) leased from
       the workspace, not a set lookup per probe. *)
    let cells = Routing_grid.cells grid in
    let mask =
      match workspace with
      | Some ws -> Pacor_route.Workspace.scratch_bytes ws ~slot:3 ~len:cells
      | None -> Bytes.create cells
    in
    Routing_grid.fill_interior_free grid mask;
    Point.Set.iter
      (fun p ->
         if Routing_grid.in_bounds grid p then
           Bytes.unsafe_set mask (Routing_grid.index grid p) '\000')
      claimed;
    let spec =
      { Pacor_route.Astar.usable = (fun i -> Bytes.unsafe_get mask i = '\001');
        extra_cost = (fun _ -> 0) }
    in
    (match
       Pacor_route.Astar.search ?workspace ~grid ~spec ~sources:start_cells ~targets:pins ()
     with
     | Some path ->
       Some
         { Pacor_flow.Escape.idx = 0;
           start_cell = Path.source path;
           pin = Path.target path;
           path }
     | None -> None)

let run ?alive ?workspace ~grid ~pins routed_clusters =
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
    Pacor_flow.Escape.route ?alive ?workspace ~grid ~claimed ~pins requests
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
