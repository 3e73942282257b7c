open Pacor_geom
open Pacor_valve

let run ~config ~workspace ~grid ~delta ~reserved ~pins
    (assignments : Escape_stage.assignment list) =
  let log fmt = Config.log config fmt in
  let alive () = Pacor_route.Budget.alive (Pacor_route.Workspace.budget workspace) in
  (* Per-cluster escape assignments, replaced as rescues succeed.
     [escape_cells] caches an assignment's cell set the first time a
     rematch attempt unions it into its forbidden set; [set_escape] drops
     the stale entry. Most runs rematch nothing and never build a set. *)
  let escapes : (int, Pacor_flow.Escape.routed option) Hashtbl.t = Hashtbl.create 16 in
  let escape_cells : (int, Point.Set.t) Hashtbl.t = Hashtbl.create 16 in
  let set_escape id e =
    Hashtbl.replace escapes id e;
    Hashtbl.remove escape_cells id
  in
  List.iter
    (fun (a : Escape_stage.assignment) -> set_escape a.routed.cluster.Cluster.id a.escape)
    assignments;
  let escape_cells_of (r : Routed.t) =
    let id = r.cluster.Cluster.id in
    match Hashtbl.find_opt escape_cells id with
    | Some cells -> cells
    | None ->
      let cells =
        match Hashtbl.find_opt escapes id with
        | Some (Some e) ->
          Point.Set.of_list (Pacor_grid.Path.points e.Pacor_flow.Escape.path)
        | Some None | None -> Point.Set.empty
      in
      Hashtbl.replace escape_cells id cells;
      cells
  in
  let rematch_one committed (r : Routed.t) =
    let unmatched_tree =
      match r.shape, Routed.spread r with
      | Some (Routed.Tree _), Some s -> s > delta
      | (Some (Routed.Pair _) | None), _ | _, None -> false
    in
    let has_no_escape =
      Hashtbl.find_opt escapes r.cluster.Cluster.id = Some None
    in
    if (not unmatched_tree) || has_no_escape then []
    else begin
      let others =
        List.filter (fun (x : Routed.t) -> x.cluster.Cluster.id <> r.cluster.Cluster.id)
          committed
      in
      let forbidden_of rs =
        List.fold_left
          (fun acc (x : Routed.t) ->
             Point.Set.union acc (Point.Set.union x.claimed (escape_cells_of x)))
          Point.Set.empty rs
      in
      let pins_available rs =
        let used =
          List.filter_map
            (fun (x : Routed.t) ->
               match Hashtbl.find_opt escapes x.cluster.Cluster.id with
               | Some (Some e) -> Some e.Pacor_flow.Escape.pin
               | Some None | None -> None)
            rs
        in
        List.filter (fun p -> not (List.exists (Point.equal p) used)) pins
      in
      let forbidden = forbidden_of others in
      let available_pins = pins_available others in
      let obstacles = Pacor_grid.Routing_grid.blocked_work_map grid [ reserved; forbidden ] in
      let candidates =
        Cluster_route.candidates_for ~config ~grid
          ~usable:(Pacor_grid.Obstacle_map.free obstacles) r.cluster
      in
      let try_candidate (cand : Pacor_dme.Candidate.t) =
        match
          Cluster_route.route_single ~workspace ~config ~grid ~obstacles r.cluster cand
        with
        | None -> None
        | Some r' ->
          let claimed = Point.Set.union forbidden r'.claimed in
          (match
             Escape_stage.single ~workspace ~grid ~claimed ~pins:available_pins
               ~start_cells:(Routed.start_cells r') ()
           with
           | Some e ->
             let blocked = Detour_stage.blocked ~reserved ~base:forbidden [] [ e ] in
             let r'', ok =
               Detour_stage.detour_one ~workspace ~grid ~delta ~theta:config.Config.theta
                 ~blocked r'
             in
             if ok then Some (r'', e) else None
           | None -> None)
      in
      (* Last resort: rip this cluster and its nearest tree neighbour
         jointly — the neighbour's channels are usually what starves the
         detour stage. Both must come back matched. *)
      let try_joint () =
        let tree_neighbours =
          List.filter
            (fun (x : Routed.t) ->
               match x.shape with Some (Routed.Tree _) -> true | _ -> false)
            others
        in
        let distance (x : Routed.t) =
          List.fold_left
            (fun acc p ->
               List.fold_left
                 (fun a q -> min a (Point.manhattan p q))
                 acc
                 (Cluster.positions x.cluster))
            max_int
            (Cluster.positions r.cluster)
        in
        let partner =
          List.fold_left
            (fun acc x ->
               match acc with
               | Some (_, d) when d <= distance x -> acc
               | _ -> Some (x, distance x))
            None tree_neighbours
        in
        match partner with
        | None -> []
        | Some ((n : Routed.t), _) ->
          let rest =
            List.filter
              (fun (x : Routed.t) -> x.cluster.Cluster.id <> n.cluster.Cluster.id)
              others
          in
          let forbidden2 = forbidden_of rest in
          let joint =
            Cluster_route.route ~workspace ~config ~grid
              ~valve_cells:(Point.Set.union reserved forbidden2)
              [ r.cluster; n.cluster ]
          in
          log "rematch-joint: %d routed, %d demoted"
            (List.length joint.Cluster_route.routed)
            (List.length joint.Cluster_route.demoted);
          (match joint.Cluster_route.routed, joint.Cluster_route.demoted with
           | ([ _; _ ] as both), [] ->
             (match
                Escape_stage.run ~alive ~workspace ~base:forbidden2 ~grid
                  ~pins:(pins_available rest) both
              with
              | Ok { assignments = [ { escape = Some e0; _ }; { escape = Some e1; _ } ]; _ } ->
                let blocked = Detour_stage.blocked ~reserved ~base:forbidden2 both [ e0; e1 ] in
                let out =
                  Detour_stage.run ~workspace ~grid ~delta ~theta:config.Config.theta
                    ~blocked both
                in
                log "rematch-joint: detour matched %d of 2"
                  (List.length out.Detour_stage.matched_ids);
                if List.length out.Detour_stage.matched_ids = 2 then begin
                  log "rematch: clusters %d and %d jointly rerouted"
                    r.cluster.Cluster.id n.cluster.Cluster.id;
                  List.iter2
                    (fun (x : Routed.t) e -> set_escape x.cluster.Cluster.id (Some e))
                    both [ e0; e1 ];
                  List.map
                    (fun (x : Routed.t) -> (x.cluster.Cluster.id, x))
                    out.Detour_stage.updated
                end
                else []
              | Ok o ->
                log "rematch-joint: escape failed (%d routed)"
                  (List.length o.assignments - List.length o.failed_clusters);
                []
              | Error msg ->
                log "rematch-joint: escape error %s" msg;
                [])
           | _, _ -> [])
      in
      let rec try_all = function
        | [] -> try_joint ()
        | cand :: rest ->
          (match try_candidate cand with
           | Some (r'', e) ->
             log "rematch: cluster %d rescued with an alternative candidate"
               r.cluster.Cluster.id;
             set_escape r.cluster.Cluster.id (Some e);
             [ (r.cluster.Cluster.id, r'') ]
           | None -> try_all rest)
      in
      try_all candidates
    end
  in
  let apply current replacements =
    List.map
      (fun (x : Routed.t) ->
         match List.assoc_opt x.cluster.Cluster.id replacements with
         | Some x' -> x'
         | None -> x)
      current
  in
  let rec pass current = function
    | [] -> current
    | (r : Routed.t) :: rest ->
      let r_now =
        List.find
          (fun (x : Routed.t) -> x.cluster.Cluster.id = r.cluster.Cluster.id)
          current
      in
      pass (apply current (rematch_one current r_now)) rest
  in
  let routed = List.map (fun (a : Escape_stage.assignment) -> a.routed) assignments in
  List.map
    (fun (r : Routed.t) ->
       { Escape_stage.routed = r; escape = Hashtbl.find escapes r.cluster.Cluster.id })
    (pass routed routed)
