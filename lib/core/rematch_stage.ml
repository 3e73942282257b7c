open Pacor_valve

let run ~config ~workspace ~grid ~delta ~pins (assignments : Escape_stage.assignment list) =
  let log fmt = Config.log config fmt in
  let alive () = Pacor_route.Budget.alive (Pacor_route.Workspace.budget workspace) in
  let id_of (a : Escape_stage.assignment) = a.routed.Routed.cluster.Cluster.id in
  (* Every attempt below runs on the owner layer with the ripped clusters
     vacated: it reads everything else there, and holds what it tries
     until the try fails. *)
  let occupied = Pacor_route.Workspace.occupied workspace in
  let occupy = Escape_stage.occupy workspace and vacate = Escape_stage.vacate workspace in
  let rematch_one current (a : Escape_stage.assignment) =
    let r = a.routed in
    let unmatched_tree =
      match r.shape, Routed.spread r with
      | Some (Routed.Tree _), Some s -> s > delta
      | (Some (Routed.Pair _) | None), _ | _, None -> false
    in
    if (not unmatched_tree) || a.escape = None then []
    else begin
      let others = List.filter (fun x -> id_of x <> id_of a) current in
      let pins_available rs =
        Escape_stage.free_pins ~grid pins
          ~used:
            (List.filter_map
               (fun (x : Escape_stage.assignment) ->
                  Option.map (fun (e : Pacor_flow.Escape.routed) -> e.pin) x.escape)
               rs)
      in
      vacate a;
      let available_pins = pins_available others in
      let candidates =
        Cluster_route.candidates_for ~config ~grid
          ~usable:(Pacor_grid.Obstacle_map.free occupied) r.cluster
      in
      let try_candidate (cand : Pacor_dme.Candidate.t) =
        match
          Cluster_route.route_single ~workspace ~grid ~obstacles:occupied r.cluster cand
        with
        | None -> None
        | Some r' ->
          Routed.occupy workspace r';
          (match
             Escape_stage.single ~workspace ~grid ~pins:available_pins
               ~start_cells:(Routed.start_cells r') ()
           with
           | Some e ->
             let tried = { Escape_stage.routed = r'; escape = Some e } in
             occupy tried;
             let r'', ok =
               Detour_stage.detour_one ~workspace ~grid ~delta ~theta:config.Config.theta r'
             in
             if ok then Some { tried with routed = r'' }
             else begin
               vacate tried;
               None
             end
           | None ->
             Routed.vacate workspace r';
             None)
      in
      (* Last resort: rip this cluster and its nearest tree neighbour
         jointly — the neighbour's channels are usually what starves the
         detour stage. Both must come back matched. *)
      let try_joint () =
        let tree_neighbours =
          List.filter
            (fun (x : Escape_stage.assignment) ->
               match x.routed.shape with Some (Routed.Tree _) -> true | _ -> false)
            others
        in
        let distance (x : Escape_stage.assignment) =
          List.fold_left
            (fun acc p ->
               List.fold_left
                 (fun a q -> Int.min a (Pacor_geom.Point.manhattan p q))
                 acc
                 (Cluster.positions x.routed.cluster))
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
        | Some (n, _) ->
          vacate n;
          let rest = List.filter (fun x -> id_of x <> id_of n) others in
          let joint =
            Cluster_route.route ~workspace ~config ~grid ~obstacles:occupied
              [ r.cluster; n.routed.cluster ]
          in
          log "rematch-joint: %d routed, %d demoted"
            (List.length joint.Cluster_route.routed)
            (List.length joint.Cluster_route.demoted);
          let rescued =
            match joint.Cluster_route.routed, joint.Cluster_route.demoted with
            | ([ _; _ ] as both), [] ->
              List.iter (Routed.occupy workspace) both;
              (match
                 Escape_stage.run ~alive ~workspace ~grid ~pins:(pins_available rest) both
               with
               | Ok { assignments = [ { escape = Some _; _ }; { escape = Some _; _ } ] as pair; _ }
                 ->
                 List.iter occupy pair;
                 let out =
                   Detour_stage.run ~workspace ~grid ~delta ~theta:config.Config.theta both
                 in
                 log "rematch-joint: detour matched %d of 2"
                   (List.length out.Detour_stage.matched_ids);
                 let pair =
                   List.map2
                     (fun routed (x : Escape_stage.assignment) -> { x with routed })
                     out.Detour_stage.updated pair
                 in
                 if List.length out.Detour_stage.matched_ids = 2 then begin
                   log "rematch: clusters %d and %d jointly rerouted"
                     r.cluster.Cluster.id n.routed.cluster.Cluster.id;
                   pair
                 end
                 else begin
                   List.iter vacate pair;
                   []
                 end
               | Ok o ->
                 log "rematch-joint: escape failed (%d routed)"
                   (List.length o.assignments - List.length o.failed_clusters);
                 List.iter (Routed.vacate workspace) both;
                 []
               | Error msg ->
                 log "rematch-joint: escape error %s" msg;
                 List.iter (Routed.vacate workspace) both;
                 [])
            | _, _ -> []
          in
          if rescued = [] then occupy n;
          rescued
      in
      let rescued =
        match List.find_map try_candidate candidates with
        | Some a' ->
          log "rematch: cluster %d rescued with an alternative candidate" r.cluster.Cluster.id;
          [ a' ]
        | None -> try_joint ()
      in
      if rescued = [] then occupy a;
      rescued
    end
  in
  let apply current replacements =
    List.map
      (fun x ->
         match List.find_opt (fun y -> id_of y = id_of x) replacements with
         | Some x' -> x'
         | None -> x)
      current
  in
  List.fold_left
    (fun current a ->
       let a_now = List.find (fun x -> id_of x = id_of a) current in
       apply current (rematch_one current a_now))
    assignments assignments
