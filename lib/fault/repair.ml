open Pacor_geom
open Pacor_grid
open Pacor_valve
module Int_set = Set.Make (Int)

type fault_outcome =
  | Repaired
  | Degraded of string
  | Unrepairable of string

type report = {
  fault : Fault.t;
  outcome : fault_outcome;
  clusters : int list;
}

type t = {
  solution : Pacor.Solution.t;
  reports : report list;
  dirty : int list;
  untouched : int;
  quarantined : Valve.id list;
  ripped_length : int;
  repaired_length : int;
  wall_s : float;
}

let escape_cells (c : Pacor.Solution.routed_cluster) =
  match c.escape with
  | None -> Point.Set.empty
  | Some e -> Point.Set.of_list (Path.points e.Pacor_flow.Escape.path)

let footprint (c : Pacor.Solution.routed_cluster) =
  Point.Set.union c.routed.Pacor.Routed.claimed (escape_cells c)

let claims_of routed_list =
  List.fold_left
    (fun acc (r : Pacor.Routed.t) -> Point.Set.union acc r.claimed)
    Point.Set.empty routed_list

(* Does this fault dirty this routed cluster? A stuck valve dirties its
   owner; a blocked cell or leak dirties every cluster whose channels or
   escape path run through the retired cells (valve cells are part of
   [claimed], so a blockage landing on a valve dirties its cluster too). *)
let touches fault (c : Pacor.Solution.routed_cluster) =
  match fault with
  | Fault.Stuck_valve { valve; _ } ->
    List.mem valve (Cluster.valve_ids c.routed.Pacor.Routed.cluster)
  | Fault.Blocked_cell p -> Point.Set.mem p (footprint c)
  | Fault.Leaky_segment { a; b } ->
    let fp = footprint c in
    Point.Set.mem a fp || Point.Set.mem b fp

let cluster_ids cs =
  List.sort Int.compare
    (List.map
       (fun (c : Pacor.Solution.routed_cluster) ->
          c.routed.Pacor.Routed.cluster.Cluster.id)
       cs)

let dirty_set ~faults (sol : Pacor.Solution.t) =
  cluster_ids
    (List.filter
       (fun c -> List.exists (fun f -> touches f c) faults)
       sol.Pacor.Solution.clusters)

(* Engine's solution-assembly rule for one replacement cluster. *)
let assemble ~delta (r : Pacor.Routed.t) escape =
  let escape_len =
    match escape with
    | None -> 0
    | Some (e : Pacor_flow.Escape.routed) -> Path.length e.path
  in
  let lengths =
    List.map (fun (vid, l) -> (vid, l + escape_len)) (Pacor.Routed.escape_anchor_lengths r)
  in
  let matched =
    Pacor.Routed.is_length_matched_shape r
    && escape <> None
    && (match Pacor.Routed.spread r with Some s -> s <= delta | None -> false)
  in
  { Pacor.Solution.routed = r; escape; lengths; matched }

(* The re-route core, shared by fault repair and the serving layer's delta
   handlers. [fproblem] is the already-mutated instance; [is_dirty] names
   the routed clusters to rip up; [revise] maps a ripped cluster to the
   cluster to route in its place ([None] retires it outright — e.g. every
   member valve died). Untouched clusters are reused without so much as a
   copy, so their channels stay byte-identical. *)
type rerouted = {
  r_solution : Pacor.Solution.t;
  r_dirty : Pacor.Solution.routed_cluster list;
  r_rebuilt : Pacor.Solution.routed_cluster list;
  r_untouched : int;
  r_quarantined : Valve.id list;
  r_ripped_length : int;
  r_repaired_length : int;
  r_wall_s : float;
}

let reroute_inner ~workspace ~budget ~stage ~fproblem ~is_dirty ~revise
    (sol : Pacor.Solution.t) =
  let t0 = Pacor_route.Clock.now_mono () in
  let s0 = Pacor_route.Search_stats.snapshot (Pacor_route.Workspace.stats workspace) in
  let config = sol.Pacor.Solution.config in
  let grid = fproblem.Pacor.Problem.grid in
  let delta = fproblem.Pacor.Problem.delta in
  let alive () = Pacor_route.Budget.alive budget in
  (* Dirty set: exactly the clusters the caller names. Everything else is
     reused as-is, so untouched channels stay byte-identical. *)
  let untouched, dirty =
    List.partition (fun c -> not (is_dirty c)) sol.Pacor.Solution.clusters
  in
  (* Internal routing treats valve cells and candidate pins as blockages,
     exactly like the engine (pins are reserved for escape channels). *)
  let valve_cells =
    List.fold_left
      (fun acc p -> Point.Set.add p acc)
      (Point.Set.of_list
         (List.map (fun (v : Valve.t) -> v.position) fproblem.Pacor.Problem.valves))
      fproblem.Pacor.Problem.pins
  in
  let untouched_forbidden =
    List.fold_left
      (fun acc c -> Point.Set.union acc (footprint c))
      Point.Set.empty untouched
  in
  let used_pins =
    List.filter_map
      (fun (c : Pacor.Solution.routed_cluster) ->
         Option.map (fun (e : Pacor_flow.Escape.routed) -> e.pin) c.escape)
      untouched
  in
  let available_pins =
    List.filter
      (fun p -> not (List.exists (Point.equal p) used_pins))
      fproblem.Pacor.Problem.pins
  in
  let next_id =
    ref
      (1
       + List.fold_left
           (fun m (c : Pacor.Solution.routed_cluster) ->
              max m c.routed.Pacor.Routed.cluster.Cluster.id)
           0 sol.Pacor.Solution.clusters)
  in
  let fresh_id () =
    let id = !next_id in
    incr next_id;
    id
  in
  (* Rip-up and re-route, sequentially so each replacement avoids the
     claims of the ones routed before it. A dirty length-matched cluster
     first retries its DME candidates around the change; when none routes
     (or the budget is dead and every search fails fast) it falls back to
     MST / singleton routing, which cannot fail. *)
  let reroute_one forbidden (cluster : Cluster.t) =
    let lm_attempt () =
      if not (Cluster.needs_matching cluster && alive ()) then None
      else begin
        let usable p =
          Routing_grid.free grid p
          && (not (Point.Set.mem p valve_cells))
          && not (Point.Set.mem p forbidden)
        in
        let obstacles = Routing_grid.fresh_work_map grid in
        Point.Set.iter (Obstacle_map.block obstacles) valve_cells;
        Point.Set.iter (Obstacle_map.block obstacles) forbidden;
        let candidates = Pacor.Cluster_route.candidates_for ~config ~grid ~usable cluster in
        List.find_map
          (fun cand ->
             if alive () then
               Pacor.Cluster_route.route_single ~workspace ~config ~grid ~obstacles
                 cluster cand
             else None)
          candidates
      end
    in
    match lm_attempt () with
    | Some r -> [ r ]
    | None ->
      let out =
        Pacor.Plain_route.route_all ~workspace ~grid ~valve_cells
          ~already_claimed:forbidden ~fresh_id [ cluster ]
      in
      out.Pacor.Plain_route.routed
  in
  let replacements =
    List.fold_left
      (fun done_ (c : Pacor.Solution.routed_cluster) ->
         match revise c.routed.Pacor.Routed.cluster with
         | None -> done_ (* retired: e.g. every valve dead *)
         | Some cluster' ->
           let forbidden = Point.Set.union untouched_forbidden (claims_of done_) in
           done_ @ reroute_one forbidden cluster')
      [] dirty
  in
  (* One global escape solve for all replacements, against the untouched
     clusters' channels and escape paths and the pins they already use. *)
  let escape_solve replacements =
    if replacements = [] then
      Ok { Pacor_flow.Escape.routed = []; failed = []; total_length = 0 }
    else
      Pacor_flow.Escape.route ~alive ~workspace ~grid
        ~claimed:(Point.Set.union untouched_forbidden (claims_of replacements))
        ~pins:available_pins
        (List.mapi
           (fun i (r : Pacor.Routed.t) ->
              { Pacor_flow.Escape.cluster_idx = i; start_cells = Pacor.Routed.start_cells r })
           replacements)
  in
  (* Escape with the engine's rip-up ladder, scoped to the replacements:
     a pinless length-matched tree is demoted to ordinary MST routing, a
     pinless multi-valve ordinary cluster is declustered into singletons
     (which claim just their valve cell and escape from there). Only when
     the ladder bottoms out — or the budget dies — does a cluster stay
     pinless. *)
  let rec escape_loop round replacements =
    match escape_solve replacements with
    | Error _ as e -> e
    | Ok out ->
      let escaped idx = List.exists (fun (e : Pacor_flow.Escape.routed) -> e.idx = idx)
                          out.Pacor_flow.Escape.routed in
      let any_failed =
        List.exists (fun i -> not (escaped i))
          (List.mapi (fun i _ -> i) replacements)
      in
      if (not any_failed)
         || round >= config.Pacor.Config.max_ripup_rounds
         || not (alive ())
      then Ok (replacements, out)
      else begin
        let keep, failed =
          List.partition_map
            (fun (i, r) -> if escaped i then Either.Left r else Either.Right r)
            (List.mapi (fun i r -> (i, r)) replacements)
        in
        let changed = ref false in
        let rec go done_ = function
          | [] -> done_
          | (r : Pacor.Routed.t) :: rest ->
            let forbidden =
              Point.Set.union untouched_forbidden
                (claims_of (keep @ done_ @ rest))
            in
            let replacement =
              if Pacor.Routed.is_length_matched_shape r then begin
                changed := true;
                let out =
                  Pacor.Plain_route.route_all ~workspace ~grid ~valve_cells
                    ~already_claimed:forbidden ~fresh_id [ r.cluster ]
                in
                out.Pacor.Plain_route.routed
              end
              else if Cluster.size r.cluster >= 2 then begin
                changed := true;
                List.map Pacor.Routed.make_singleton (Cluster.split r.cluster ~fresh_id)
              end
              else [ r ]
            in
            go (done_ @ replacement) rest
        in
        let failed = go [] failed in
        if !changed then escape_loop (round + 1) (keep @ failed)
        else Ok (replacements, out)
      end
  in
  (match escape_loop 0 replacements with
   | Error e -> Error (stage ^ ": escape: " ^ e)
   | Ok (replacements, escape_out) ->
     let escape_by_idx : (int, Pacor_flow.Escape.routed) Hashtbl.t = Hashtbl.create 16 in
     List.iter
       (fun (e : Pacor_flow.Escape.routed) -> Hashtbl.replace escape_by_idx e.idx e)
       escape_out.Pacor_flow.Escape.routed;
     (* A replacement still pinless after the ladder is unrepairable
        congestion: quarantine its valves out of the instance rather than
        ship a dead channel. *)
     let kept, quarantined_routes =
       let indexed = List.mapi (fun i r -> (i, r)) replacements in
       List.partition_map
         (fun (i, r) ->
            match Hashtbl.find_opt escape_by_idx i with
            | Some e -> Either.Left (r, e)
            | None -> Either.Right r)
         indexed
     in
     let quarantined =
       List.concat_map
         (fun (r : Pacor.Routed.t) -> Cluster.valve_ids r.cluster)
         quarantined_routes
       |> List.sort_uniq Int.compare
     in
     let final_problem =
       if quarantined = [] then Ok fproblem
       else Pacor.Problem.with_faults fproblem ~blocked:[] ~dead_valves:quarantined
     in
     (match final_problem with
      | Error e -> Error (stage ^ ": quarantine: " ^ e)
      | Ok final_problem ->
        (* Detour the re-routed trees back under delta (pure refinement:
           skipped outright on a dead budget, like the engine's gate). *)
        let kept_routes = List.map fst kept in
        let kept_routes =
          let needs_detour (r : Pacor.Routed.t) =
            match r.shape with Some (Pacor.Routed.Tree _) -> true | _ -> false
          in
          if (not (List.exists needs_detour kept_routes)) || not (alive ()) then
            kept_routes
          else begin
            let escape_cells_all =
              List.fold_left
                (fun acc ((_ : Pacor.Routed.t), (e : Pacor_flow.Escape.routed)) ->
                   List.fold_left
                     (fun s p -> Point.Set.add p s)
                     acc (Path.points e.path))
                (List.fold_left
                   (fun acc c -> Point.Set.union acc (escape_cells c))
                   Point.Set.empty untouched)
                kept
            in
            let blocked =
              Point.Set.union valve_cells
                (Point.Set.union untouched_forbidden
                   (Point.Set.union (claims_of kept_routes) escape_cells_all))
            in
            let out =
              Pacor.Detour_stage.run ~workspace ~grid ~delta ~theta:config.Pacor.Config.theta
                ~blocked kept_routes
            in
            out.Pacor.Detour_stage.updated
          end
        in
        let escapes = List.map snd kept in
        let rebuilt =
          List.map2 (fun r e -> assemble ~delta r (Some e)) kept_routes escapes
        in
        let wall_s = Pacor_route.Clock.now_mono () -. t0 in
        let s1 =
          Pacor_route.Search_stats.snapshot (Pacor_route.Workspace.stats workspace)
        in
        let stage_outcome =
          match Pacor_route.Budget.exhausted budget with
          | None -> Pacor.Solution.Completed
          | Some Pacor_route.Budget.Deadline -> Pacor.Solution.Timed_out
          | Some r -> Pacor.Solution.Degraded (Pacor_route.Budget.reason_label r)
        in
        let solution =
          {
            Pacor.Solution.problem = final_problem;
            config;
            clusters = untouched @ rebuilt;
            initial_multi_clusters = sol.Pacor.Solution.initial_multi_clusters;
            runtime_s = sol.Pacor.Solution.runtime_s +. wall_s;
            stage_seconds = sol.Pacor.Solution.stage_seconds @ [ (stage, wall_s) ];
            stage_search =
              sol.Pacor.Solution.stage_search
              @ [ (stage, Pacor_route.Search_stats.diff s1 s0) ];
            stage_outcomes =
              sol.Pacor.Solution.stage_outcomes @ [ (stage, stage_outcome) ];
            budget_exhausted = Pacor_route.Budget.exhausted budget;
          }
        in
        let sum_length cs =
          List.fold_left
            (fun acc c -> acc + Pacor.Solution.cluster_total_length c)
            0 cs
        in
        Ok
          {
            r_solution = solution;
            r_dirty = dirty;
            r_rebuilt = rebuilt;
            r_untouched = List.length untouched;
            r_quarantined = quarantined;
            r_ripped_length = sum_length dirty;
            r_repaired_length = sum_length rebuilt;
            r_wall_s = wall_s;
          }))

(* Budget/workspace plumbing shared by [run] and [reroute]: install the
   armed budget for the duration, restore the previous one on every exit
   path, and keep the whole thing total. *)
let with_budget ?workspace ?limits ~stage (sol : Pacor.Solution.t) f =
  let workspace =
    match workspace with Some w -> w | None -> Pacor_route.Workspace.create ()
  in
  let limits =
    match limits with
    | Some l -> l
    | None -> sol.Pacor.Solution.config.Pacor.Config.limits
  in
  let budget = Pacor_route.Budget.create limits in
  let saved = Pacor_route.Workspace.budget workspace in
  Pacor_route.Workspace.set_budget workspace budget;
  Pacor_route.Budget.arm budget;
  Fun.protect
    ~finally:(fun () -> Pacor_route.Workspace.set_budget workspace saved)
    (fun () ->
      try f ~workspace ~budget with
      | Stack_overflow -> Error (stage ^ ": stack overflow")
      | exn -> Error (stage ^ ": " ^ Printexc.to_string exn))

let reroute ?workspace ?limits ?(stage = "reroute") ~problem ~is_dirty
    ?(revise = fun c -> Some c) (sol : Pacor.Solution.t) =
  with_budget ?workspace ?limits ~stage sol (fun ~workspace ~budget ->
    match reroute_inner ~workspace ~budget ~stage ~fproblem:problem ~is_dirty ~revise sol with
    | Error _ as e -> e
    | Ok rr ->
      Ok
        {
          solution = rr.r_solution;
          reports = [];
          dirty = cluster_ids rr.r_dirty;
          untouched = rr.r_untouched;
          quarantined = rr.r_quarantined;
          ripped_length = rr.r_ripped_length;
          repaired_length = rr.r_repaired_length;
          wall_s = rr.r_wall_s;
        })

let run ?workspace ?limits ~faults (sol : Pacor.Solution.t) =
  with_budget ?workspace ?limits ~stage:"repair" sol (fun ~workspace ~budget ->
    let problem = sol.Pacor.Solution.problem in
    let blocked = Fault.blocked_cells faults in
    let blocked_set = Point.Set.of_list blocked in
    let stuck = Fault.stuck_valves faults in
    match Pacor.Problem.with_faults problem ~blocked ~dead_valves:stuck with
    | Error e -> Error ("repair: " ^ e)
    | Ok fproblem ->
      (* Valves dead to the faults: stuck ones plus any valve standing on a
         retired cell (the same rule [with_faults] applied). *)
      let dead =
        List.fold_left
          (fun acc (v : Valve.t) ->
             if Point.Set.mem v.position blocked_set then Int_set.add v.id acc else acc)
          (Int_set.of_list stuck) problem.Pacor.Problem.valves
      in
      let revise (cluster : Cluster.t) =
        match
          List.filter
            (fun (v : Valve.t) -> not (Int_set.mem v.id dead))
            cluster.Cluster.valves
        with
        | [] -> None (* every valve dead: the cluster retires with them *)
        | survivors ->
          (match
             Cluster.make ~id:cluster.Cluster.id
               ~length_matched:cluster.Cluster.length_matched survivors
           with
           | Ok c -> Some c
           | Error _ ->
             (* A subset of a pairwise-compatible set stays compatible;
                only reachable if the input solution was malformed. *)
             Some
               (Cluster.make_exn ~id:cluster.Cluster.id ~length_matched:false
                  survivors))
      in
      let is_dirty c = List.exists (fun f -> touches f c) faults in
      (match
         reroute_inner ~workspace ~budget ~stage:"repair" ~fproblem ~is_dirty ~revise sol
       with
       | Error _ as e -> e
       | Ok rr ->
         (* Per-fault verdicts, from what happened to the clusters each
            fault touched. *)
         let quarantined_set = Int_set.of_list rr.r_quarantined in
         let matched_now =
           (* Surviving valve id -> is its new cluster length-matched. A
              replacement too small to need matching (a singleton left by a
              stuck valve) is trivially matched, not a degradation. *)
           let tbl : (Valve.id, bool) Hashtbl.t = Hashtbl.create 16 in
           List.iter
             (fun (c : Pacor.Solution.routed_cluster) ->
                let cluster = c.routed.Pacor.Routed.cluster in
                let ok = c.matched || not (Cluster.needs_matching cluster) in
                List.iter (fun vid -> Hashtbl.replace tbl vid ok) (Cluster.valve_ids cluster))
             rr.r_rebuilt;
           tbl
         in
         let budget_reason = Pacor_route.Budget.exhausted budget in
         let report_for fault =
           let touched = List.filter (fun c -> touches fault c) rr.r_dirty in
           let ids = cluster_ids touched in
           let valves_of (c : Pacor.Solution.routed_cluster) =
             Cluster.valve_ids c.routed.Pacor.Routed.cluster
           in
           let lost_valve =
             List.concat_map valves_of touched
             |> List.find_opt (fun v -> Int_set.mem v quarantined_set)
           in
           let matching_lost =
             List.exists
               (fun (c : Pacor.Solution.routed_cluster) ->
                  c.matched
                  && List.exists
                       (fun v ->
                          match Hashtbl.find_opt matched_now v with
                          | Some m -> not m
                          | None -> false)
                       (valves_of c))
               touched
           in
           let outcome =
             match lost_valve with
             | Some v ->
               Unrepairable (Printf.sprintf "valve %d quarantined: no escape pin" v)
             | None ->
               if matching_lost then Degraded "length matching lost"
               else (
                 match budget_reason with
                 | Some r when touched <> [] ->
                   Degraded ("budget: " ^ Pacor_route.Budget.reason_label r)
                 | Some _ | None -> Repaired)
           in
           { fault; outcome; clusters = ids }
         in
         Ok
           {
             solution = rr.r_solution;
             reports = List.map report_for faults;
             dirty = cluster_ids rr.r_dirty;
             untouched = rr.r_untouched;
             quarantined = rr.r_quarantined;
             ripped_length = rr.r_ripped_length;
             repaired_length = rr.r_repaired_length;
             wall_s = rr.r_wall_s;
           }))

let pp_outcome ppf = function
  | Repaired -> Format.pp_print_string ppf "repaired"
  | Degraded why -> Format.fprintf ppf "degraded (%s)" why
  | Unrepairable why -> Format.fprintf ppf "unrepairable (%s)" why

let pp_report ppf r =
  Format.fprintf ppf "%a -> %a" Fault.pp r.fault pp_outcome r.outcome;
  match r.clusters with
  | [] -> Format.fprintf ppf " (no cluster affected)"
  | ids ->
    Format.fprintf ppf " (cluster%s %a)"
      (if List.length ids > 1 then "s" else "")
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
         Format.pp_print_int)
      ids

let pp_summary ppf t =
  let count p = List.length (List.filter p t.reports) in
  Format.fprintf ppf
    "%d faults: %d repaired, %d degraded, %d unrepairable; %d clusters ripped, %d untouched, %d valves quarantined; length %d -> %d; %.3fs"
    (List.length t.reports)
    (count (fun r -> r.outcome = Repaired))
    (count (fun r -> match r.outcome with Degraded _ -> true | _ -> false))
    (count (fun r -> match r.outcome with Unrepairable _ -> true | _ -> false))
    (List.length t.dirty) t.untouched
    (List.length t.quarantined)
    t.ripped_length t.repaired_length t.wall_s
