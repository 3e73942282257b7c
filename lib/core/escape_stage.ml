open Pacor_geom
open Pacor_grid
open Pacor_valve

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
       reads a byte mask of free interior cells minus [claimed], not a set
       lookup per probe: the workspace's interior-free mask, with the
       claimed cells cleared for this search only. The pins ring the
       chip, so the box heuristic would read 0 everywhere; the distance to
       the nearest pin steers the search instead. *)
    let ws = match workspace with Some ws -> ws | None -> Pacor_route.Workspace.create () in
    let clear set =
      Point.Set.iter
        (fun p -> if Routing_grid.in_bounds grid p then set (Routing_grid.index grid p))
        claimed
    in
    Pacor_route.Workspace.with_interior_free_mask ws grid ~clear (fun mask ->
      let spec =
        { Pacor_route.Astar.usable = (fun i -> Bytes.unsafe_get mask i = '\001');
          extra_cost = (fun _ -> 0) }
      in
      Pacor_route.Astar.search ~workspace:ws
        ?heuristic:(nearest_pin_steps ~grid pins)
        ~grid ~spec ~sources:start_cells ~targets:pins ())
    |> Option.map (fun path ->
      { Pacor_flow.Escape.idx = 0; start_cell = Path.source path; pin = Path.target path; path })

(* What a solve that never ran reports: every cluster pinless, so stats
   and [Solution.validate] name exactly what is missing. *)
let unrouted routed_clusters =
  { assignments = List.map (fun r -> { routed = r; escape = None }) routed_clusters;
    failed_clusters =
      List.map (fun (r : Routed.t) -> r.cluster.Cluster.id) routed_clusters;
    escape_length = 0 }

let run ?alive ?workspace ?(base = Point.Set.empty) ~grid ~pins routed_clusters =
  if routed_clusters = [] then Ok (unrouted [])
  else begin
    let claimed = Point.Set.union base (Routed.claims_of routed_clusters) in
    let requests =
      List.mapi
        (fun i (r : Routed.t) ->
           { Pacor_flow.Escape.cluster_idx = i; start_cells = Routed.start_cells r })
        routed_clusters
    in
    match Pacor_flow.Escape.route ?alive ?workspace ~grid ~claimed ~pins requests with
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
             if a.escape = None then Some a.routed.Routed.cluster.Cluster.id
             else None)
          assignments
      in
      Ok { assignments; failed_clusters; escape_length = out.total_length }
  end

let replace_each ~base ~context step pending =
  let rec go done_ = function
    | [] -> done_
    | r :: rest ->
      let others = Point.Set.union base (Routed.claims_of (context @ done_ @ rest)) in
      go (done_ @ step ~others r) rest
  in
  go [] pending

let ripup ?(retry = fun ~others:_ _ -> None) ?(unjail = fun ~keep:_ ~failed:_ -> None)
    ~config ~workspace ~grid ~reserved ~fresh_id ?(base = Point.Set.empty) ~pins routed =
  let alive () = Pacor_route.Budget.alive (Pacor_route.Workspace.budget workspace) in
  let rec round k routed =
    if not (alive ()) then Ok (unrouted routed)
    else
      match run ~alive ~workspace ~base ~grid ~pins routed with
      | Error _ as e -> e
      | Ok out
        when out.failed_clusters = [] || k >= config.Config.max_ripup_rounds
             || not (alive ()) ->
        (* The budget is also polled inside the flow solve; a dead budget
           keeps the current partial assignment rather than ripping
           further. *)
        Ok out
      | Ok out ->
        Config.log config "escape round %d: %d clusters unrouted, ripping up" k
          (List.length out.failed_clusters);
        let keep, failed =
          List.partition
            (fun (r : Routed.t) ->
               not (List.mem r.cluster.Cluster.id out.failed_clusters))
            routed
        in
        let step ~others (r : Routed.t) =
          if Routed.is_length_matched_shape r then begin
            (* Ripped at a higher cost (Sec. 3): the caller's retry first,
               else routed as an ordinary cluster. *)
            match retry ~others r with
            | Some r' -> [ r' ]
            | None ->
              Plain_route.route_one ~workspace ~grid ~valve_cells:reserved
                ~already_claimed:others ~fresh_id r.cluster
          end
          else if Cluster.size r.cluster >= 2 then
            List.map Routed.make_singleton (Cluster.split r.cluster ~fresh_id)
          else [ r ]
        in
        let changes (r : Routed.t) =
          Routed.is_length_matched_shape r || Cluster.size r.cluster >= 2
        in
        if List.exists changes failed then
          round (k + 1) (keep @ replace_each ~base ~context:keep step failed)
        else
          match unjail ~keep ~failed with
          | Some routed -> round (k + 1) routed
          | None -> Ok out
  in
  round 0 routed
