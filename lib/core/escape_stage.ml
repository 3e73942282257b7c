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

(* Manhattan distance to the nearest pin on the boundary ring. A pin on
   the top row at column px is |x - px| + y away from (x, y), so the
   nearest top pin is y plus a 1-D distance transform of the top row at x;
   likewise for the other three sides, and the nearest pin overall is the
   minimum over the sides. [far] marks a side without pins: it exceeds
   every real distance, so it never wins the minimum while any pin
   exists. *)
let nearest_pin_steps ~grid pins =
  if not (List.for_all (Routing_grid.on_boundary grid) pins) then None
  else begin
    let w = Routing_grid.width grid and h = Routing_grid.height grid in
    let far = w + h in
    let top = Array.make w far and bottom = Array.make w far in
    let left = Array.make h far and right = Array.make h far in
    List.iter
      (fun (p : Point.t) ->
         if p.y = 0 then top.(p.x) <- 0;
         if p.y = h - 1 then bottom.(p.x) <- 0;
         if p.x = 0 then left.(p.y) <- 0;
         if p.x = w - 1 then right.(p.y) <- 0)
      pins;
    let transform d =
      let n = Array.length d in
      for k = 1 to n - 1 do
        d.(k) <- min d.(k) (d.(k - 1) + 1)
      done;
      for k = n - 2 downto 0 do
        d.(k) <- min d.(k) (d.(k + 1) + 1)
      done
    in
    List.iter transform [ top; bottom; left; right ];
    Some
      (fun i ->
         let x = i mod w and y = i / w in
         min
           (min (y + Array.unsafe_get top x) (h - 1 - y + Array.unsafe_get bottom x))
           (min (x + Array.unsafe_get left y) (w - 1 - x + Array.unsafe_get right y)))
  end

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
       the workspace, not a set lookup per probe. The pins ring the chip,
       so the box heuristic would read 0 everywhere; the distance to the
       nearest pin steers the search instead. *)
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
       Pacor_route.Astar.search ?workspace
         ?heuristic:(nearest_pin_steps ~grid pins)
         ~grid ~spec ~sources:start_cells ~targets:pins ()
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
