open Pacor_geom
open Pacor_valve

type error = {
  stage : string;
  message : string;
}

let log config fmt =
  if config.Config.verbose then Format.eprintf ("[pacor] " ^^ fmt ^^ "@.")
  else Format.ifprintf Format.err_formatter fmt

(* Union of every cluster's claimed cells except the given one's. *)
let claims_of routed_list =
  List.fold_left
    (fun acc (r : Routed.t) -> Point.Set.union acc r.claimed)
    Point.Set.empty routed_list

(* Demote a routed length-matched cluster (or re-route a declustered one):
   rip its channels and route it as an ordinary cluster around everything
   else. *)
let reroute_as_plain ~workspace ~grid ~valve_cells ~others ~fresh_id (cluster : Cluster.t) =
  let out =
    Plain_route.route_all ~workspace ~grid ~valve_cells ~already_claimed:others ~fresh_id
      [ cluster ]
  in
  out.Plain_route.routed

let detour ~workspace ~grid ~delta ~theta ~valve_cells ~escapes routed_list =
  let escape_cells =
    List.fold_left
      (fun acc (e : Pacor_flow.Escape.routed option) ->
         match e with
         | None -> acc
         | Some e ->
           List.fold_left
             (fun s p -> Point.Set.add p s)
             acc
             (Pacor_grid.Path.points e.Pacor_flow.Escape.path))
      Point.Set.empty escapes
  in
  let blocked =
    Point.Set.union valve_cells (Point.Set.union (claims_of routed_list) escape_cells)
  in
  Detour_stage.run ~workspace ~grid ~delta ~theta ~blocked routed_list

let route_inner ~config ~workspace ~budget (problem : Problem.t) =
  (* Monotonic wall-clock (not process CPU, not gettimeofday) time: with several engine runs in flight
     on concurrent domains, [Sys.time] charges every domain's work to each
     run and misreports per-instance runtime and batch speedup. *)
  let t0 = Pacor_route.Clock.now_mono () in
  let timings = ref [] in
  let stage_search = ref [] in
  let stage_outcomes = ref [] in
  let alive () = Pacor_route.Budget.alive budget in
  let timed label f =
    let before = Pacor_route.Budget.exhausted budget in
    let s0 = Pacor_route.Search_stats.snapshot (Pacor_route.Workspace.stats workspace) in
    let start = Pacor_route.Clock.now_mono () in
    let result = f () in
    timings := (label, Pacor_route.Clock.now_mono () -. start) :: !timings;
    let s1 = Pacor_route.Search_stats.snapshot (Pacor_route.Workspace.stats workspace) in
    stage_search := (label, Pacor_route.Search_stats.diff s1 s0) :: !stage_search;
    let outcome =
      match before, Pacor_route.Budget.exhausted budget with
      | None, None -> Solution.Completed
      | None, Some Pacor_route.Budget.Deadline -> Solution.Timed_out
      | None, Some r -> Solution.Degraded (Pacor_route.Budget.reason_label r)
      | Some r, _ ->
        (* Exhausted before the stage even started: it ran in fail-fast
           mode (or was skipped outright at its gate). *)
        Solution.Degraded ("skipped: " ^ Pacor_route.Budget.reason_label r)
    in
    stage_outcomes := (label, outcome) :: !stage_outcomes;
    result
  in
  let grid = problem.Problem.grid in
  let delta = problem.Problem.delta in
  let valve_cells =
    Point.Set.of_list (List.map (fun (v : Valve.t) -> v.position) problem.Problem.valves)
  in
  (* Candidate pin cells are reserved for escape channels: an internal
     channel routed over a pin would collide with whichever escape later
     terminates there. Every internal-routing stage treats them (like valve
     cells) as blockages; A* exempts each search's own endpoints, and the
     escape router receives the pin list separately. *)
  let valve_cells =
    List.fold_left
      (fun acc p -> Point.Set.add p acc)
      valve_cells problem.Problem.pins
  in
  (* Stage 1: valve clustering under broadcast addressing. *)
  match
    timed "clustering" (fun () ->
      Clustering.cluster ~seeds:problem.Problem.lm_clusters problem.Problem.valves)
  with
  | Error message -> Error { stage = "clustering"; message }
  | Ok partition ->
    let clusters = partition.Clustering.clusters in
    let initial_multi_clusters =
      List.length (List.filter (fun c -> Cluster.size c >= 2) clusters)
    in
    log config "clustering: %d clusters (%d multi-valve)" (List.length clusters)
      initial_multi_clusters;
    let next_id =
      ref (1 + List.fold_left (fun m (c : Cluster.t) -> max m c.id) 0 clusters)
    in
    let fresh_id () =
      let id = !next_id in
      incr next_id;
      id
    in
    (* Stage 2: length-matching cluster routing. *)
    let lm_out =
      timed "lm-routing" (fun () ->
        Cluster_route.route ~workspace ~config ~grid ~valve_cells clusters)
    in
    log config "lm routing: %d routed, %d demoted (%d negotiation rounds)"
      (List.length lm_out.Cluster_route.routed)
      (List.length lm_out.Cluster_route.demoted)
      lm_out.Cluster_route.iterations;
    (* Detour-first ablation: match lengths before escape routing. *)
    let lm_routed =
      match config.Config.variant with
      | Config.Detour_first when alive () ->
        let out =
          timed "detour" (fun () ->
            detour ~workspace ~grid ~delta ~theta:config.Config.theta ~valve_cells
              ~escapes:[] lm_out.Cluster_route.routed)
        in
        out.Detour_stage.updated
      | Config.Detour_first ->
        (* Budget already exhausted: detouring is pure refinement, skip it. *)
        timed "detour" (fun () -> lm_out.Cluster_route.routed)
      | Config.Full | Config.Without_selection -> lm_out.Cluster_route.routed
    in
    (* Stage 3: MST routing for ordinary and demoted clusters. *)
    let plain_clusters =
      List.filter (fun c -> not (Cluster.needs_matching c)) clusters
      @ lm_out.Cluster_route.demoted
    in
    let plain_out =
      timed "plain-routing" (fun () ->
        Plain_route.route_all ~workspace ~grid ~valve_cells
          ~already_claimed:(claims_of lm_routed) ~fresh_id plain_clusters)
    in
    log config "plain routing: %d routes (%d declustered)"
      (List.length plain_out.Plain_route.routed)
      plain_out.Plain_route.declustered;
    (* Stage 4: escape routing with rip-up / declustering. A failed
       length-matched tree first retries its remaining DME candidates (a
       different root placement often frees an exit toward the boundary);
       when candidates run out it is demoted to ordinary routing, and a
       failed ordinary cluster is declustered into singletons. *)
    let candidate_attempts : (int, int) Hashtbl.t = Hashtbl.create 16 in
    let alternative_candidate ~others (r : Routed.t) =
      match r.shape with
      | Some (Routed.Pair _) | None -> None
      | Some (Routed.Tree { candidate = current; _ }) ->
        let usable p =
          Pacor_grid.Routing_grid.free grid p
          && (not (Point.Set.mem p valve_cells))
          && not (Point.Set.mem p others)
        in
        let candidates =
          Cluster_route.candidates_for ~config ~grid ~usable r.cluster
          |> List.filter (fun (c : Pacor_dme.Candidate.t) ->
            not (Point.equal c.root current.root && c.edges = current.edges))
        in
        (* Indexed once: [List.nth candidates tried] re-walks the candidate
           list on every rip-up round, and raises an undiagnosable
           [Failure _] if the enumeration ever shrinks between rounds. *)
        let candidates = Array.of_list candidates in
        let tried =
          Option.value ~default:0 (Hashtbl.find_opt candidate_attempts r.cluster.Cluster.id)
        in
        if tried >= Array.length candidates then None
        else begin
          Hashtbl.replace candidate_attempts r.cluster.Cluster.id (tried + 1);
          let cand = candidates.(tried) in
          let obstacles = Pacor_grid.Routing_grid.fresh_work_map grid in
          Point.Set.iter (fun p -> Pacor_grid.Obstacle_map.block obstacles p) valve_cells;
          Point.Set.iter (fun p -> Pacor_grid.Obstacle_map.block obstacles p) others;
          Cluster_route.route_single ~workspace ~config ~grid ~obstacles r.cluster cand
        end
    in
    (* Unrouted-with-diagnostics: what the escape stage reports when the
       budget dies before it can run — every cluster pinless, so stats and
       [Solution.validate] name exactly what is missing. *)
    let unrouted_escape routed_list =
      {
        Escape_stage.assignments =
          List.map (fun r -> { Escape_stage.routed = r; escape = None }) routed_list;
        failed_clusters =
          List.map (fun (r : Routed.t) -> r.cluster.Cluster.id) routed_list;
        escape_length = 0;
      }
    in
    let rec escape_loop round routed_list =
      if not (alive ()) then Ok (routed_list, unrouted_escape routed_list)
      else
      match
        Escape_stage.run ~alive ~workspace ~grid ~pins:problem.Problem.pins routed_list
      with
      | Error message -> Error { stage = "escape"; message }
      | Ok out ->
        (* The budget is also polled inside the flow solve (once per
           augmentation round) and re-checked between rip-up rounds; a
           dead budget keeps the current partial assignment rather than
           ripping further. *)
        if out.Escape_stage.failed_clusters = [] || round >= config.Config.max_ripup_rounds
           || not (alive ())
        then Ok (routed_list, out)
        else begin
          log config "escape round %d: %d clusters unrouted, ripping up" round
            (List.length out.Escape_stage.failed_clusters);
          let failed_ids = out.Escape_stage.failed_clusters in
          let keep, failed =
            List.partition
              (fun (r : Routed.t) -> not (List.mem r.cluster.Cluster.id failed_ids))
              routed_list
          in
          let changed = ref false in
          (* Replace failed clusters one at a time: each reroute must avoid
             the {e new} claims of the replacements made before it (stale
             claims of two simultaneous reroutes can overlap). *)
          let replacements =
            let rec go done_ pending =
              match pending with
              | [] -> done_
              | (r : Routed.t) :: rest ->
                let others =
                  claims_of (keep @ done_ @ rest)
                in
                let replacement =
                  if Routed.is_length_matched_shape r then begin
                    changed := true;
                    match alternative_candidate ~others r with
                    | Some r' ->
                      log config
                        "escape rip-up: cluster %d retried with another candidate"
                        r.cluster.Cluster.id;
                      [ r' ]
                    | None ->
                      (* Rip the length-matched tree and reroute as ordinary
                         (higher rip-up cost, per Sec. 3). *)
                      reroute_as_plain ~workspace ~grid ~valve_cells ~others ~fresh_id
                        r.cluster
                  end
                  else if Cluster.size r.cluster >= 2 then begin
                    changed := true;
                    let singles = Cluster.split r.cluster ~fresh_id in
                    List.map Routed.make_singleton singles
                  end
                  else [ r ]
                in
                go (done_ @ replacement) rest
            in
            go [] failed
          in
          if !changed then escape_loop (round + 1) (keep @ replacements)
          else begin
            (* Every failed cluster is an unfixable singleton: it must be
               walled in by a neighbour's channels. Demote the adjacent
               length-matched "jailers" to compact ordinary routes and
               retry. *)
            let failed_cells =
              List.fold_left
                (fun acc (r : Routed.t) ->
                   List.fold_left
                     (fun s p -> Point.Set.add p s)
                     acc (Routed.start_cells r))
                Point.Set.empty failed
            in
            let near p =
              Point.Set.exists (fun q -> Point.chebyshev p q <= 2) failed_cells
            in
            (* Any neighbouring cluster with channels qualifies — a cluster
               demoted in an earlier round can be the jailer too. *)
            let jailers, free_keep =
              List.partition
                (fun (r : Routed.t) -> r.paths <> [] && Point.Set.exists near r.claimed)
                keep
            in
            if jailers = [] then Ok (routed_list, out)
            else begin
              log config "escape round %d: rerouting %d jailer clusters" round
                (List.length jailers);
              (* Reserve a ring around the jailed valves plus, with the
                 jailers ripped, one concrete lane from each jailed
                 cluster to a pin — the reroutes must leave it open. *)
              let ring =
                Point.Set.fold
                  (fun p acc ->
                     List.fold_left
                       (fun s q -> Point.Set.add q s)
                       acc (Point.neighbours4 p))
                  failed_cells Point.Set.empty
              in
              let lane_cells = ref Point.Set.empty in
              let lane_for (r : Routed.t) =
                let work = Pacor_grid.Routing_grid.fresh_work_map grid in
                Point.Set.iter (Pacor_grid.Obstacle_map.block work) valve_cells;
                Point.Set.iter (Pacor_grid.Obstacle_map.block work) !lane_cells;
                Point.Set.iter (Pacor_grid.Obstacle_map.block work)
                  (claims_of (free_keep @ List.filter (fun x -> x != r) failed));
                let spec = Pacor_route.Astar.obstacle_spec work in
                Pacor_route.Astar.search ~workspace ~grid ~spec
                  ~sources:(Routed.start_cells r) ~targets:problem.Problem.pins ()
              in
              (* Upgrade each jailed cluster: its lane (minus the pin
                 itself) becomes an internal channel, so the next escape
                 round only needs the final hop and nobody can steal the
                 lane. *)
              let failed =
                List.map
                  (fun (r : Routed.t) ->
                     match lane_for r with
                     | Some path when Pacor_grid.Path.length path >= 1 ->
                       let pts = Pacor_grid.Path.points path in
                       let trimmed =
                         Pacor_grid.Path.of_points
                           (List.filteri (fun i _ -> i < List.length pts - 1) pts)
                       in
                       List.iter
                         (fun p -> lane_cells := Point.Set.add p !lane_cells)
                         (Pacor_grid.Path.points trimmed);
                       Routed.make_plain r.cluster
                         ~paths:(trimmed :: r.paths)
                         ~claimed:r.claimed
                     | Some _ | None -> r)
                  failed
              in
              let reserved = Point.Set.union ring !lane_cells in
              let demoted =
                (* Sequential for the same staleness reason as above. *)
                let rec go done_ pending =
                  match pending with
                  | [] -> done_
                  | (r : Routed.t) :: rest ->
                    let others =
                      Point.Set.union reserved
                        (claims_of (free_keep @ failed @ done_ @ rest))
                    in
                    go
                      (done_
                       @ reroute_as_plain ~workspace ~grid ~valve_cells ~others ~fresh_id
                           r.cluster)
                      rest
                in
                go [] jailers
              in
              escape_loop (round + 1) (free_keep @ demoted @ failed)
            end
          end
        end
    in
    (match timed "escape" (fun () -> escape_loop 0 (lm_routed @ plain_out.Plain_route.routed)) with
     | Error e -> Error e
     | Ok (routed_list, escape_out) ->
       let escape_of (r : Routed.t) =
         List.find_map
           (fun (a : Escape_stage.assignment) ->
              if a.routed.Routed.cluster.Cluster.id = r.cluster.Cluster.id then a.escape
              else None)
           escape_out.Escape_stage.assignments
       in
       (* Stage 5: final path detouring (skipped by Detour_first). *)
       let final_routed =
         match config.Config.variant with
         | Config.Detour_first -> routed_list
         | Config.Full | Config.Without_selection ->
           if not (alive ()) then timed "detour" (fun () -> routed_list)
           else
             let escapes = List.map escape_of routed_list in
             let out =
               timed "detour" (fun () ->
                 detour ~workspace ~grid ~delta ~theta:config.Config.theta ~valve_cells
                   ~escapes routed_list)
             in
             out.Detour_stage.updated
       in
       (* Per-cluster escape assignments, mutable so the rematch pass can
          replace them. [escape_cells] caches an assignment's cell set the
          first time a rematch attempt unions it into its forbidden set;
          [set_escape] drops the stale entry. Most runs rematch nothing and
          never build a set. *)
       let escapes : (int, Pacor_flow.Escape.routed option) Hashtbl.t = Hashtbl.create 16 in
       let escape_cells : (int, Point.Set.t) Hashtbl.t = Hashtbl.create 16 in
       let set_escape id e =
         Hashtbl.replace escapes id e;
         Hashtbl.remove escape_cells id
       in
       List.iter (fun (r : Routed.t) -> set_escape r.cluster.Cluster.id (escape_of r))
         final_routed;
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
       (* Stage 5b (rematch): an unmatched tree cluster may be rescued by
          ripping it up entirely — channels and escape — and retrying the
          other DME candidates. This is the "clusters with length-matching
          constraint can also be ripped up, at higher cost" arm of Sec. 3's
          rip-up loop. *)
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
             List.filter
               (fun p -> not (List.exists (Point.equal p) used))
               problem.Problem.pins
           in
           let forbidden = forbidden_of others in
           let available_pins = pins_available others in
           let usable_embed p =
             Pacor_grid.Routing_grid.free grid p
             && (not (Point.Set.mem p valve_cells))
             && not (Point.Set.mem p forbidden)
           in
           let obstacles = Pacor_grid.Routing_grid.fresh_work_map grid in
           Point.Set.iter (fun p -> Pacor_grid.Obstacle_map.block obstacles p) valve_cells;
           Point.Set.iter (fun p -> Pacor_grid.Obstacle_map.block obstacles p) forbidden;
           let candidates =
             Cluster_route.candidates_for ~config ~grid ~usable:usable_embed r.cluster
           in
           let try_candidate (cand : Pacor_dme.Candidate.t) =
             match
               Cluster_route.route_single ~workspace ~config ~grid ~obstacles r.cluster
                 cand
             with
             | None -> None
             | Some r' ->
               let claimed = Point.Set.union forbidden r'.claimed in
               (match
                  Escape_stage.single ~workspace ~grid ~claimed ~pins:available_pins
                    ~start_cells:(Routed.start_cells r') ()
                with
                | Some e ->
                  let blocked =
                    Point.Set.union valve_cells
                      (Point.Set.union forbidden
                         (Point.Set.of_list
                            (Pacor_grid.Path.points e.Pacor_flow.Escape.path)))
                  in
                  let r'', ok =
                    Detour_stage.detour_one ~workspace ~grid ~delta
                      ~theta:config.Config.theta ~blocked r'
                  in
                  if ok then Some (r'', e) else None
                | None -> None)
           in
           (* Last resort: rip this cluster and its nearest tree neighbour
              jointly — the neighbour's channels are usually what starves
              the detour stage. Both must come back matched. *)
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
               let blocked_all = Point.Set.union valve_cells forbidden2 in
               let joint =
                 Cluster_route.route ~workspace ~config ~grid ~valve_cells:blocked_all
                   [ r.cluster; n.cluster ]
               in
               log config "rematch-joint: %d routed, %d demoted"
                 (List.length joint.Cluster_route.routed)
                 (List.length joint.Cluster_route.demoted);
               (match joint.Cluster_route.routed, joint.Cluster_route.demoted with
                | ([ _; _ ] as both), [] ->
                  let claims_both = claims_of both in
                  let requests =
                    List.mapi
                      (fun i (x : Routed.t) ->
                         { Pacor_flow.Escape.cluster_idx = i;
                           start_cells = Routed.start_cells x })
                      both
                  in
                  (match
                     Pacor_flow.Escape.route ~alive ~workspace ~grid
                       ~claimed:(Point.Set.union forbidden2 claims_both)
                       ~pins:(pins_available rest) requests
                   with
                   | Ok { Pacor_flow.Escape.routed = [ e0; e1 ]; failed = []; _ } ->
                     let escape_pts (e : Pacor_flow.Escape.routed) =
                       Point.Set.of_list (Pacor_grid.Path.points e.path)
                     in
                     let blocked =
                       List.fold_left Point.Set.union blocked_all
                         [ forbidden2; claims_both; escape_pts e0; escape_pts e1 ]
                     in
                     let out =
                       Detour_stage.run ~workspace ~grid ~delta
                         ~theta:config.Config.theta ~blocked both
                     in
                     log config "rematch-joint: detour matched %d of 2"
                       (List.length out.Detour_stage.matched_ids);
                     if List.length out.Detour_stage.matched_ids = 2 then begin
                       log config "rematch: clusters %d and %d jointly rerouted"
                         r.cluster.Cluster.id n.cluster.Cluster.id;
                       let by_idx =
                         List.map2
                           (fun (x : Routed.t) e -> (x.cluster.Cluster.id, e))
                           both [ e0; e1 ]
                       in
                       List.iter (fun (id, e) -> set_escape id (Some e)) by_idx;
                       List.map
                         (fun (x : Routed.t) -> (x.cluster.Cluster.id, x))
                         out.Detour_stage.updated
                     end
                     else []
                   | Ok o ->
                     log config "rematch-joint: escape failed (%d routed)"
                       (List.length o.Pacor_flow.Escape.routed);
                     []
                   | Error msg ->
                     log config "rematch-joint: escape error %s" msg;
                     [])
                | _, _ -> [])
           in
           let rec try_all = function
             | [] -> try_joint ()
             | cand :: rest ->
               (match try_candidate cand with
                | Some (r'', e) ->
                  log config "rematch: cluster %d rescued with an alternative candidate"
                    r.cluster.Cluster.id;
                  set_escape r.cluster.Cluster.id (Some e);
                  [ (r.cluster.Cluster.id, r'') ]
                | None -> try_all rest)
           in
           try_all candidates
         end
       in
       let final_routed =
         match config.Config.variant with
         | Config.Detour_first -> final_routed
         | _ when not (alive ()) ->
           (* Rematch is the most expensive refinement; a dead budget skips
              it and the solution keeps whatever matching escape + detour
              achieved. *)
           timed "rematch" (fun () -> final_routed)
         | Config.Full | Config.Without_selection ->
           timed "rematch" (fun () ->
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
                 let replacements = rematch_one current r_now in
                 pass (apply current replacements) rest
             in
             pass final_routed final_routed)
       in
       (* Assemble the solution. *)
       let clusters_out =
         List.map
           (fun (r : Routed.t) ->
              let escape =
                match Hashtbl.find_opt escapes r.cluster.Cluster.id with
                | Some e -> e
                | None -> escape_of r
              in
              let escape_len =
                match escape with
                | None -> 0
                | Some e -> Pacor_grid.Path.length e.Pacor_flow.Escape.path
              in
              let lengths =
                List.map
                  (fun (vid, l) -> (vid, l + escape_len))
                  (Routed.escape_anchor_lengths r)
              in
              let matched =
                Routed.is_length_matched_shape r
                && escape <> None
                && (match Routed.spread r with Some s -> s <= delta | None -> false)
              in
              { Solution.routed = r; escape; lengths; matched })
           final_routed
       in
       let runtime_s = Pacor_route.Clock.now_mono () -. t0 in
       log config "done in %.2fs" runtime_s;
       Ok
         {
           Solution.problem;
           config;
           clusters = clusters_out;
           initial_multi_clusters;
           runtime_s;
           stage_seconds = List.rev !timings;
           stage_search = List.rev !stage_search;
           stage_outcomes = List.rev !stage_outcomes;
           budget_exhausted = Pacor_route.Budget.exhausted budget;
         })

let run ?(config = Config.default) ?workspace (problem : Problem.t) =
  (* One search workspace for the whole problem: every stage's A* /
     bounded-A* calls reuse its arrays (O(1) epoch reset, no grid-sized
     allocation per search) and accumulate into its counters. A caller
     running many problems (a batch worker) passes its own to keep the
     warm arrays across instances; it must not share one workspace
     between concurrent runs. *)
  let workspace =
    match workspace with
    | Some w -> w
    | None -> Pacor_route.Workspace.create ()
  in
  let cells = Pacor_grid.Routing_grid.cells problem.Problem.grid in
  (* One-time growth to the instance's size: a cold workspace on a
     1000x1000+ grid pays a single allocation event here instead of a
     doubling cascade inside the first searches; a pooled workspace grows
     monotonically and reuses its arrays across differently-sized
     problems. *)
  Pacor_route.Workspace.prepare workspace ~cells;
  (* The budget rides on the workspace so every search this run performs —
     and nothing outside it — is charged; the caller's budget (normally
     unlimited) is restored on every exit path. *)
  let budget = Pacor_route.Budget.create config.Config.limits in
  let saved = Pacor_route.Workspace.budget workspace in
  Pacor_route.Workspace.set_budget workspace budget;
  Pacor_route.Budget.arm budget;
  Fun.protect
    ~finally:(fun () -> Pacor_route.Workspace.set_budget workspace saved)
    (fun () ->
      try route_inner ~config ~workspace ~budget problem with
      | Stack_overflow -> Error { stage = "internal"; message = "stack overflow" }
      | exn -> Error { stage = "internal"; message = Printexc.to_string exn })

type tier = Flat

let tier_name Flat = "flat"

type report = {
  solution : Solution.t;
  tier : tier;
  clips : int;
  fallbacks : int;
  bidir : int;
}

let run_report ?config ?workspace problem =
  Result.map
    (fun solution -> { solution; tier = Flat; clips = 0; fallbacks = 0; bidir = 0 })
    (run ?config ?workspace problem)
