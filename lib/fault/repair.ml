open Pacor_geom
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

(* Does this fault dirty this routed cluster? A stuck valve dirties its
   owner; a blocked cell or leak dirties every cluster whose channels or
   escape path run through the retired cells (valve cells are part of
   [claimed], so a blockage landing on a valve dirties its cluster too). *)
let touches fault (c : Pacor.Solution.routed_cluster) =
  match fault with
  | Fault.Stuck_valve { valve; _ } ->
    List.mem valve (Cluster.valve_ids c.routed.Pacor.Routed.cluster)
  | Fault.Blocked_cell p -> Pacor.Solution.occupies c p
  | Fault.Leaky_segment { a; b } -> Pacor.Solution.occupies c a || Pacor.Solution.occupies c b

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

(* The re-route core, shared by fault repair and the serving layer's delta
   handlers: the engine's stages 2-5 ({!Pacor.Engine.route_clusters}) on
   the dirty clusters, against an owner layer loaded with the untouched
   ones. [fproblem] is the already-mutated instance; [is_dirty] names the
   routed clusters to rip up, and a cluster without an escape is ripped
   whatever it says (reused, it would leave its valves unrouted); [revise]
   maps a ripped cluster to the cluster to route in its place ([None]
   retires it outright — e.g. every member valve died). Untouched clusters
   are reused without so much as a copy, so their channels stay
   byte-identical. Returns the result (with no per-fault reports) plus the
   ripped and the rebuilt clusters. *)
let reroute_inner ~workspace ~stage ~fproblem ~is_dirty ~revise (sol : Pacor.Solution.t) =
  let config = sol.Pacor.Solution.config in
  let { Pacor.Problem.grid; delta; _ } = fproblem in
  let rebuild () =
    let untouched, dirty =
      List.partition
        (fun (c : Pacor.Solution.routed_cluster) -> c.escape <> None && not (is_dirty c))
        sol.Pacor.Solution.clusters
    in
    Pacor_route.Workspace.load_owners workspace grid
      ~reserved:(Pacor.Problem.reserved_cells fproblem);
    List.iter
      (fun (c : Pacor.Solution.routed_cluster) ->
         Pacor.Escape_stage.occupy workspace { routed = c.routed; escape = c.escape })
      untouched;
    let pins =
      Pacor.Escape_stage.free_pins ~grid
        ~used:
          (List.filter_map
             (fun (c : Pacor.Solution.routed_cluster) ->
                Option.map (fun (e : Pacor_flow.Escape.routed) -> e.pin) c.escape)
             untouched)
        fproblem.Pacor.Problem.pins
    in
    let fresh_id =
      Cluster.fresh_ids
        (List.map
           (fun (c : Pacor.Solution.routed_cluster) -> c.routed.Pacor.Routed.cluster)
           sol.Pacor.Solution.clusters)
    in
    let clusters =
      List.filter_map
        (fun (c : Pacor.Solution.routed_cluster) -> revise c.routed.Pacor.Routed.cluster)
        dirty
    in
    match Pacor.Engine.route_clusters ~config ~workspace ~grid ~delta ~pins ~fresh_id clusters with
    | Error e -> Error (stage ^ ": " ^ e.stage ^ ": " ^ e.message)
    | Ok (assignments, _) ->
      (* A replacement still pinless after the whole flow is unrepairable
         congestion: quarantine its valves out of the instance rather than
         ship a dead channel. *)
      let kept, pinless =
        List.partition (fun (a : Pacor.Escape_stage.assignment) -> a.escape <> None) assignments
      in
      List.iter (Pacor.Escape_stage.vacate workspace) pinless;
      let quarantined =
        List.concat_map
          (fun (a : Pacor.Escape_stage.assignment) -> Cluster.valve_ids a.routed.cluster)
          pinless
        |> List.sort_uniq Int.compare
      in
      (match
         if quarantined = [] then Ok fproblem
         else Pacor.Problem.with_faults fproblem ~blocked:[] ~dead_valves:quarantined
       with
       | Error e -> Error (stage ^ ": quarantine: " ^ e)
       | Ok final_problem ->
         let rebuilt =
           List.map
             (fun (a : Pacor.Escape_stage.assignment) ->
                Pacor.Solution.assemble ~delta a.routed a.escape)
             kept
         in
         Ok (untouched, dirty, final_problem, rebuilt, quarantined))
  in
  match Pacor.Solution.measure workspace rebuild with
  | (Error _ as e), _ -> e
  | Ok (untouched, dirty, final_problem, rebuilt, quarantined), measured ->
    let solution =
      Pacor.Solution.add_stages
        { sol with
          Pacor.Solution.problem = final_problem;
          clusters = untouched @ rebuilt;
          runtime_s = sol.Pacor.Solution.runtime_s +. measured.seconds;
          budget_exhausted = Pacor_route.Budget.exhausted (Pacor_route.Workspace.budget workspace) }
        [ (stage, measured) ]
    in
    let sum_length cs =
      List.fold_left (fun acc c -> acc + Pacor.Solution.cluster_total_length c) 0 cs
    in
    Ok
      ( {
          solution;
          reports = [];
          dirty = cluster_ids dirty;
          untouched = List.length untouched;
          quarantined;
          ripped_length = sum_length dirty;
          repaired_length = sum_length rebuilt;
          wall_s = measured.seconds;
        },
        dirty,
        rebuilt )

(* [reroute_inner] in the engine's budget scope: [limits] default to the
   ones [sol] was routed under. *)
let reroute_scoped ?workspace ?limits ~stage ~problem ~is_dirty ~revise (sol : Pacor.Solution.t) =
  let limits = Option.value limits ~default:sol.Pacor.Solution.config.Pacor.Config.limits in
  match
    Pacor.Engine.scoped ?workspace limits (fun workspace ->
      reroute_inner ~workspace ~stage ~fproblem:problem ~is_dirty ~revise sol)
  with
  | Ok result -> result
  | Error e -> Error (stage ^ ": " ^ e)

let reroute ?workspace ?limits ?(stage = "reroute") ~problem ~is_dirty
    ?(revise = fun c -> Some c) sol =
  Result.map
    (fun (t, _, _) -> t)
    (reroute_scoped ?workspace ?limits ~stage ~problem ~is_dirty ~revise sol)

let run ?workspace ?limits ~faults (sol : Pacor.Solution.t) =
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
       reroute_scoped ?workspace ?limits ~stage:"repair" ~problem:fproblem ~is_dirty ~revise sol
     with
     | Error _ as e -> e
     | Ok (t, dirty, rebuilt) ->
       (* Per-fault verdicts, from what happened to the clusters each
          fault touched. *)
       let quarantined_set = Int_set.of_list t.quarantined in
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
           rebuilt;
         tbl
       in
       let budget_reason = t.solution.Pacor.Solution.budget_exhausted in
       let report_for fault =
         let touched = List.filter (fun c -> touches fault c) dirty in
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
       Ok { t with reports = List.map report_for faults })

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
