open Pacor_geom
open Pacor_grid
open Pacor_valve
open Pacor_dme

type outcome = {
  routed : Routed.t list;
  demoted : Cluster.t list;
  iterations : int;
}

let pair_candidate (a : Valve.t) (b : Valve.t) : Candidate.t =
  let d = Point.manhattan a.position b.position in
  {
    root = Point.midpoint a.position b.position;
    nodes =
      [ { id = 0; pos = a.position; parent = None; sink = Some 0 };
        { id = 1; pos = b.position; parent = Some 0; sink = Some 1 } ];
    edges = [ { parent_pos = a.position; child_pos = b.position } ];
    sinks = [| a.position; b.position |];
    (* Lengths are measured from the middle attachment point (Sec. 5), so
       the intrinsic mismatch of a pair is its distance parity. *)
    full_path_lengths = [| d / 2; d - (d / 2) |];
    mismatch = d mod 2;
    total_estimate = d;
  }

let candidates_for ~config ~grid ~usable (cluster : Cluster.t) =
  match cluster.valves with
  | [] -> []
  | [ v ] -> Candidate.enumerate ~grid ~usable [ v.position ]
  | [ a; b ] -> [ pair_candidate a b ]
  | _ :: _ :: _ :: _ ->
    Candidate.enumerate ~grid ~usable
      ~max_candidates:config.Config.max_candidates
      (Cluster.positions cluster)

(* Non-trivial tree edges keyed by child node id. *)
let tree_edges (candidate : Candidate.t) =
  List.filter_map
    (fun (n : Candidate.node) ->
       match n.parent with
       | None -> None
       | Some pid ->
         let ppos = Candidate.node_pos candidate pid in
         if Point.equal ppos n.pos then None else Some (n.id, ppos, n.pos))
    candidate.nodes

let build_routed (cluster : Cluster.t) (candidate : Candidate.t)
    (paths : (int * Path.t) list) =
  match cluster.valves with
  | [ a; b ] ->
    (match paths with
     | [ (_, path) ] -> Routed.make_pair cluster ~a:a.id ~b:b.id ~path
     | _ -> invalid_arg "Cluster_route: pair cluster needs exactly one path")
  | _ -> Routed.make_tree cluster ~candidate ~edge_paths:paths

let route ?workspace ~config ~grid ~valve_cells clusters =
  let lm = List.filter Cluster.needs_matching clusters in
  if lm = [] then { routed = []; demoted = []; iterations = 0 }
  else begin
    let static = Routing_grid.obstacles grid in
    let usable p =
      Obstacle_map.free static p && not (Point.Set.mem p valve_cells)
    in
    (* DME candidate generation is pure per cluster (grid geometry and the
       immutable blockage closure), so with a scheduler the clusters shard
       freely; results land in caller-indexed slots and are partitioned in
       input order, making the parallel run indistinguishable from the
       sequential one. *)
    let per_cluster =
      let arr = Array.of_list lm in
      let ncl = Array.length arr in
      let out = Array.make ncl [] in
      let fill i = out.(i) <- candidates_for ~config ~grid ~usable arr.(i) in
      (match config.Config.sched with
       | Some sched when ncl >= 2 ->
         Pacor_sched.Sched.parallel_for sched ~n:ncl fill
       | Some _ | None ->
         for i = 0 to ncl - 1 do
           fill i
         done);
      Array.to_list (Array.map2 (fun c cands -> (c, cands)) arr out)
    in
    let with_candidates, no_candidates =
      List.partition_map
        (fun (c, cands) ->
           match cands with [] -> Either.Right c | _ -> Either.Left (c, cands))
        per_cluster
    in
    let choose per_cluster =
      match config.Config.variant with
      | Config.Without_selection ->
        (* Ablation: no global selection — first candidate each. *)
        List.map (fun cands -> List.hd cands) per_cluster
      | Config.Full | Config.Detour_first ->
        let sel_config =
          { Pacor_select.Tree_select.lambda = config.Config.lambda;
            solver = config.Config.solver }
        in
        (* Selection is exponential in the worst case; a run with real
           limits lets its budget cut the search short. *)
        let alive =
          match workspace with
          | Some ws ->
            let budget = Pacor_route.Workspace.budget ws in
            if Pacor_route.Budget.is_no_limits (Pacor_route.Budget.limits_of budget) then None
            else Some (fun () -> Pacor_route.Budget.alive budget)
          | None -> None
        in
        (match
           Pacor_select.Tree_select.select ?sched:config.Config.sched ?alive
             ~config:sel_config per_cluster
         with
         | Ok sel -> sel.chosen
         | Error msg -> invalid_arg ("Cluster_route: " ^ msg))
    in
    (* Negotiation obstacles: static blockages plus every valve cell; each
       edge's own endpoints are exempted inside the router. *)
    let obstacles = Obstacle_map.copy static in
    Point.Set.iter (fun p -> Obstacle_map.block obstacles p) valve_cells;
    let rec attempt active demoted iterations =
      match active with
      | [] -> { routed = []; demoted; iterations }
      | _ :: _ ->
        let chosen = choose (List.map snd active) in
        (* Two clusters may have embedded a merging node on the same grid
           cell — their edges would then legally meet there (each edge may
           always reach its own endpoints) and the trees would overlap.
           Resolve collisions by switching the later cluster to another of
           its candidates; demote it if none is collision-free. *)
        let node_cells (c : Candidate.t) =
          Point.Set.of_list (List.map (fun (n : Candidate.node) -> n.pos) c.nodes)
        in
        let fix_collisions chosen =
          let used = ref Point.Set.empty in
          List.map2
            (fun (_, cands) cand ->
               let collides c =
                 not (Point.Set.is_empty (Point.Set.inter (node_cells c) !used))
               in
               let pick =
                 if collides cand then
                   List.find_opt (fun c -> not (collides c)) cands
                 else Some cand
               in
               (match pick with
                | Some c ->
                  used := Point.Set.union !used (node_cells c);
                  Some c
                | None -> None))
            active chosen
        in
        let resolved = fix_collisions chosen in
        let still_active, newly_demoted =
          List.partition_map
            (fun ((cluster, cands), pick) ->
               match pick with
               | Some c -> Left ((cluster, cands), c)
               | None -> Right cluster)
            (List.combine active resolved)
        in
        if newly_demoted <> [] then
          attempt_with_choices still_active
            (demoted @ newly_demoted)
            iterations
        else attempt_with_choices still_active demoted iterations
    and attempt_with_choices pairs_and_choice demoted iterations =
      match pairs_and_choice with
      | [] -> { routed = []; demoted; iterations }
      | _ :: _ ->
        let pairs =
          List.map (fun ((cluster, _cands), cand) -> (cluster, cand)) pairs_and_choice
        in
        (* Every chosen candidate's node cells become blockages for the
           whole batch: otherwise an early path may transit a cell that a
           later edge terminates on (endpoints are exempt from blockage for
           their own search), silently overlapping two clusters. *)
        let batch_obstacles = Obstacle_map.copy obstacles in
        List.iter
          (fun (_, (cand : Candidate.t)) ->
             List.iter
               (fun (n : Candidate.node) -> Obstacle_map.block batch_obstacles n.pos)
               cand.nodes)
          pairs;
        (* Flatten all tree edges, remembering ownership. *)
        let edge_info = ref [] in
        let edges =
          List.concat
            (List.mapi
               (fun cluster_slot (_cluster, candidate) ->
                  List.map
                    (fun (child_id, ppos, cpos) ->
                       let eid = List.length !edge_info in
                       edge_info := (eid, (cluster_slot, child_id)) :: !edge_info;
                       { Pacor_route.Negotiation.edge_id = eid; ends = (ppos, cpos) })
                    (tree_edges candidate))
               pairs)
        in
        let info = !edge_info in
        let result =
          Pacor_route.Negotiation.route ?sched:config.Config.sched ?workspace
            ~config:config.Config.negotiation ~grid ~obstacles:batch_obstacles
            edges
        in
        let iterations = iterations + result.iterations in
        if result.success then begin
          let paths_of slot =
            List.filter_map
              (fun (eid, path) ->
                 match List.assoc_opt eid info with
                 | Some (s, child_id) when s = slot -> Some (child_id, path)
                 | Some _ | None -> None)
              result.paths
          in
          let routed =
            List.mapi
              (fun slot (cluster, candidate) ->
                 build_routed cluster candidate (paths_of slot))
              pairs
          in
          { routed; demoted; iterations }
        end
        else begin
          (* Demote every cluster owning a failed edge and retry with the
             rest (Fig. 2's fallback to MST-based routing). *)
          let routed_ids = List.map fst result.paths in
          let failed_slots =
            List.filter_map
              (fun (eid, (slot, _)) ->
                 if List.mem eid routed_ids then None else Some slot)
              info
            |> List.sort_uniq Int.compare
          in
          (* Edge case: negotiation gave up with all edges individually
             routable but never jointly; demote the largest cluster. *)
          let failed_slots =
            if failed_slots = [] then
              [ fst
                  (List.fold_left
                     (fun (best, best_size) (slot, (c, _)) ->
                        let size = Cluster.size c in
                        if size > best_size then (slot, size) else (best, best_size))
                     (0, -1)
                     (List.mapi (fun i p -> (i, p)) pairs)) ]
            else failed_slots
          in
          let keep, drop =
            List.partition
              (fun (slot, _) -> not (List.mem slot failed_slots))
              (List.mapi (fun i a -> (i, a)) pairs_and_choice)
          in
          attempt
            (List.map (fun (_, (cluster_cands, _)) -> cluster_cands) keep)
            (demoted @ List.map (fun (_, ((c, _), _)) -> c) drop)
            iterations
        end
    in
    let out = attempt with_candidates no_candidates 0 in
    out
  end

let route_single ?workspace ~config ~grid ~obstacles cluster candidate =
  let obstacles = Obstacle_map.copy obstacles in
  List.iter
    (fun (n : Candidate.node) -> Obstacle_map.block obstacles n.pos)
    candidate.Candidate.nodes;
  let tree_edges = tree_edges candidate in
  let edges =
    List.mapi
      (fun i (_, ppos, cpos) -> { Pacor_route.Negotiation.edge_id = i; ends = (ppos, cpos) })
      tree_edges
  in
  (* Child-node ids indexed once by edge slot: [List.nth] per returned path
     is quadratic in tree size and raises a bare [Failure] on a short list,
     whereas a stale edge id should name itself. *)
  let ids = Array.of_list (List.map (fun (child_id, _, _) -> child_id) tree_edges) in
  let result =
    Pacor_route.Negotiation.route ?sched:config.Config.sched ?workspace
      ~config:config.Config.negotiation ~grid ~obstacles edges
  in
  if not result.success then None
  else begin
    let paths =
      List.map
        (fun (i, path) ->
           if i < 0 || i >= Array.length ids then
             invalid_arg
               (Printf.sprintf "Cluster_route.route_single: negotiation returned \
                                unknown edge id %d (have %d edges)"
                  i (Array.length ids));
           (ids.(i), path))
        result.paths
    in
    Some (build_routed cluster candidate paths)
  end
