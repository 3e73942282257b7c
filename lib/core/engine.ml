open Pacor_geom
open Pacor_grid
open Pacor_valve

type error = {
  stage : string;
  message : string;
}

(* The engine's rung for a pinless length-matched tree: its next untried
   DME candidate, routed around everything else in the owner layer (a
   different root placement often frees an exit toward the boundary).
   [tried] counts, per cluster, the candidates used so far. *)
let alternative_candidate ~config ~workspace ~grid tried (r : Routed.t) =
  match r.shape with
  | Some (Routed.Pair _) | None -> None
  | Some (Routed.Tree { candidate = current; _ }) ->
    let id = r.cluster.Cluster.id in
    let obstacles = Pacor_route.Workspace.occupied workspace in
    (* Indexed once: [List.nth candidates tried] re-walks the candidate
       list on every rip-up round, and raises an undiagnosable [Failure _]
       if the enumeration ever shrinks between rounds. *)
    let candidates =
      Cluster_route.candidates_for ~config ~grid ~usable:(Obstacle_map.free obstacles) r.cluster
      |> List.filter (fun (c : Pacor_dme.Candidate.t) ->
        not (Point.equal c.root current.root && c.edges = current.edges))
      |> Array.of_list
    in
    let n = Option.value ~default:0 (Hashtbl.find_opt tried id) in
    if n >= Array.length candidates then None
    else begin
      Hashtbl.replace tried id (n + 1);
      let routed =
        Cluster_route.route_single ~workspace ~grid ~obstacles r.cluster candidates.(n)
      in
      if Option.is_some routed then
        Config.log config "escape rip-up: cluster %d retried with another candidate" id;
      routed
    end

(* The engine's rung for when every pinless cluster is an ordinary one
   the ladder leaves as it is: it must be walled in by a neighbour's
   channels. Demote the adjacent clusters with channels (the "jailers")
   to compact ordinary routes that leave a ring around the jailed cells
   and one lane from each jailed cluster to a pin open. *)
let unjail ~config ~workspace ~grid ~fresh_id ~pins ~keep ~failed =
  let failed_cells =
    List.fold_left
      (fun acc r -> List.fold_left (fun s p -> Point.Set.add p s) acc (Routed.start_cells r))
      Point.Set.empty failed
  in
  let near p = Point.Set.exists (fun q -> Point.chebyshev p q <= 2) failed_cells in
  (* Any neighbouring cluster with channels qualifies — a cluster demoted
     in an earlier round can be the jailer too. *)
  let jailers, free_keep =
    List.partition (fun (r : Routed.t) -> r.paths <> [] && Point.Set.exists near r.claimed) keep
  in
  if jailers = [] then None
  else begin
    Config.log config "escape rip-up: rerouting %d jailer clusters" (List.length jailers);
    let ring =
      Point.Set.fold (fun p acc -> Point.neighbours4 p @ acc) failed_cells []
    in
    (* Lanes may cross the jailers' channels: those are rerouted next. *)
    List.iter (Routed.vacate workspace) jailers;
    let lane_for (r : Routed.t) =
      Pacor_route.Astar.search ~workspace ~grid
        ~spec:(Pacor_route.Astar.obstacle_spec (Pacor_route.Workspace.occupied workspace))
        ~sources:(Routed.start_cells r) ~targets:pins ()
    in
    let rec drop_last = function [] | [ _ ] -> [] | p :: rest -> p :: drop_last rest in
    (* Upgrade each jailed cluster: its lane (minus the pin itself) becomes
       an internal channel, so the next escape round only needs the final
       hop and nobody can steal the lane. *)
    let failed =
      List.map
        (fun (r : Routed.t) ->
           Routed.vacate workspace r;
           let r' =
             match lane_for r with
             | Some path when Path.length path >= 1 ->
               let lane = Path.of_points (drop_last (Path.points path)) in
               Routed.make_plain r.cluster ~paths:(lane :: r.paths) ~claimed:r.claimed
             | Some _ | None -> r
           in
           Routed.occupy workspace r';
           r')
        failed
    in
    (* The jailers' old channels come back, less the lanes, until each is
       rerouted around the others, the lanes and the ring. *)
    List.iter (Routed.occupy workspace) jailers;
    List.iter (Routed.occupy workspace) failed;
    let demoted =
      Escape_stage.replace_each ~workspace
        (fun (r : Routed.t) ->
           (Plain_route.route_all ~fence:ring ~workspace ~grid ~fresh_id [ r.cluster ]).routed)
        jailers
    in
    Some (free_keep @ demoted @ failed)
  end

(* Stages 2-5 of Fig. 2 on [clusters], against an owner layer that
   already holds the valve and pin cells and any clusters the caller keeps
   out of the flow. Every rung, jailer and rematch partner comes from
   [clusters]; [pins] are the pins still on offer. *)
let route_clusters ~config ~workspace ~grid ~delta ~pins ~fresh_id clusters =
  let stages = ref [] in
  let timed label f =
    let result, measured = Solution.measure workspace f in
    stages := (label, measured) :: !stages;
    result
  in
  let budget = Pacor_route.Workspace.budget workspace in
  (* A refinement stage: a dead budget skips it and keeps its input. *)
  let refine label f x =
    if Pacor_route.Budget.alive budget then timed label (fun () -> f x)
    else timed label (fun () -> x)
  in
  let detour = Detour_stage.around ~workspace ~grid ~delta ~theta:config.Config.theta in
  (* Stage 2: length-matching cluster routing. *)
  let lm_out =
    timed "lm-routing" (fun () ->
      Cluster_route.route ~workspace ~config ~grid
        ~obstacles:(Pacor_route.Workspace.occupied workspace) clusters)
  in
  List.iter (Routed.occupy workspace) lm_out.Cluster_route.routed;
  Config.log config "lm routing: %d routed, %d demoted (%d negotiation rounds)"
    (List.length lm_out.Cluster_route.routed)
    (List.length lm_out.Cluster_route.demoted)
    lm_out.Cluster_route.iterations;
  (* Detour-first ablation: match lengths before escape routing. *)
  let lm_routed =
    match config.Config.variant with
    | Config.Detour_first ->
      refine "detour"
        (fun routed ->
           detour (List.map (fun r -> { Escape_stage.routed = r; escape = None }) routed)
           |> List.map (fun (a : Escape_stage.assignment) -> a.routed))
        lm_out.Cluster_route.routed
    | Config.Full | Config.Without_selection -> lm_out.Cluster_route.routed
  in
  (* Stage 3: MST routing for ordinary and demoted clusters. *)
  let plain_out =
    timed "plain-routing" (fun () ->
      Plain_route.route_all ~workspace ~grid ~fresh_id
        (List.filter (fun c -> not (Cluster.needs_matching c)) clusters
         @ lm_out.Cluster_route.demoted))
  in
  List.iter (Routed.occupy workspace) plain_out.Plain_route.routed;
  Config.log config "plain routing: %d routes (%d declustered)"
    (List.length plain_out.Plain_route.routed)
    plain_out.Plain_route.declustered;
  (* Stage 4: escape routing on the rip-up ladder. *)
  let retry = alternative_candidate ~config ~workspace ~grid (Hashtbl.create 16) in
  let unjail = unjail ~config ~workspace ~grid ~fresh_id ~pins in
  match
    timed "escape" (fun () ->
      Escape_stage.ripup ~retry ~unjail ~config ~workspace ~grid ~fresh_id ~pins
        (lm_routed @ plain_out.Plain_route.routed))
  with
  | Error message -> Error { stage = "escape"; message }
  | Ok escaped ->
    (* Stage 5: final path detouring, then rematch (both skipped by
       Detour_first). *)
    let assignments =
      match config.Config.variant with
      | Config.Detour_first -> escaped.Escape_stage.assignments
      | Config.Full | Config.Without_selection ->
        escaped.Escape_stage.assignments
        |> refine "detour" detour
        |> refine "rematch" (Rematch_stage.run ~config ~workspace ~grid ~delta ~pins)
    in
    Ok (assignments, List.rev !stages)

let route_inner ~config ~workspace ~t0 (problem : Problem.t) =
  let { Problem.grid; delta; pins; _ } = problem in
  (* Stage 1: valve clustering under broadcast addressing. *)
  match
    Solution.measure workspace (fun () ->
      Clustering.cluster ~seeds:problem.Problem.lm_clusters problem.Problem.valves)
  with
  | Error message, _ -> Error { stage = "clustering"; message }
  | Ok partition, clustering ->
    let clusters = partition.Clustering.clusters in
    let initial_multi_clusters =
      List.length (List.filter (fun c -> Cluster.size c >= 2) clusters)
    in
    Config.log config "clustering: %d clusters (%d multi-valve)" (List.length clusters)
      initial_multi_clusters;
    (* From here on, every stage routes against the owner layer: loaded
       with the valve and pin cells here, it holds each cluster's cells
       from the moment the cluster is routed. *)
    Pacor_route.Workspace.load_owners workspace grid ~reserved:(Problem.reserved_cells problem);
    Result.map
      (fun (assignments, stages) ->
         let runtime_s = Pacor_route.Clock.now_mono () -. t0 in
         Config.log config "done in %.2fs" runtime_s;
         let solution =
           {
             Solution.problem;
             config;
             clusters =
               List.map
                 (fun (a : Escape_stage.assignment) -> Solution.assemble ~delta a.routed a.escape)
                 assignments;
             initial_multi_clusters;
             runtime_s;
             stage_seconds = [];
             stage_search = [];
             stage_outcomes = [];
             budget_exhausted =
               Pacor_route.Budget.exhausted (Pacor_route.Workspace.budget workspace);
           }
         in
         Solution.add_stages solution (("clustering", clustering) :: stages))
      (route_clusters ~config ~workspace ~grid ~delta ~pins
         ~fresh_id:(Cluster.fresh_ids clusters) clusters)

let scoped ?workspace limits f =
  let workspace =
    match workspace with Some w -> w | None -> Pacor_route.Workspace.create ()
  in
  let budget = Pacor_route.Budget.create limits in
  let saved = Pacor_route.Workspace.budget workspace in
  Pacor_route.Workspace.set_budget workspace budget;
  Pacor_route.Budget.arm budget;
  Fun.protect
    ~finally:(fun () -> Pacor_route.Workspace.set_budget workspace saved)
    (fun () ->
      try Ok (f workspace) with
      | Stack_overflow -> Error "stack overflow"
      | exn -> Error (Printexc.to_string exn))

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
  (* Monotonic wall-clock (not process CPU, not gettimeofday) time: with
     several engine runs in flight on concurrent domains, [Sys.time]
     charges every domain's work to each run and misreports per-instance
     runtime and batch speedup. The clock starts before [prepare], so
     [runtime_s] counts a cold workspace's allocation too. *)
  let t0 = Pacor_route.Clock.now_mono () in
  (* One-time growth to the instance's size: the node record to the
     escape network over the grid and the escape seed's slots to the grid,
     so a cold workspace on a 1000x1000+ grid pays one allocation event
     per array here instead of regrowing inside the first searches or a
     rip-up round; a pooled workspace grows monotonically and reuses its arrays
     across differently-sized problems. The bounded searches' visit pool
     grows by what they append. *)
  Pacor_route.Workspace.prepare workspace ~cells:(Routing_grid.cells problem.Problem.grid);
  match
    scoped ~workspace config.Config.limits (fun workspace ->
      route_inner ~config ~workspace ~t0 problem)
  with
  | Ok result -> result
  | Error message -> Error { stage = "internal"; message }

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
