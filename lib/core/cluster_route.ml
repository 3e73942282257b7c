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
  let by_id = Candidate.nodes_by_id candidate in
  List.filter_map
    (fun (n : Candidate.node) ->
       match n.parent with
       | None -> None
       | Some pid ->
         let ppos = by_id.(pid).pos in
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

(* Negotiate every non-trivial tree edge of [pairs] (cluster, chosen
   candidate) in one batch around [obstacles], which it only reads.
   Returns the rounds used and either every cluster's route, in [pairs]
   order, or which slots of [pairs] own an edge left unrouted. *)
let negotiate ?workspace ~grid ~obstacles pairs =
  (* Every chosen candidate's node cells become blockages for the whole
     batch: otherwise an early path may transit a cell that a later edge
     terminates on (endpoints are exempt from blockage for their own
     search), silently overlapping two clusters. *)
  let batch_obstacles = Obstacle_map.copy obstacles in
  List.iter
    (fun (_, (cand : Candidate.t)) ->
       List.iter
         (fun (n : Candidate.node) -> Obstacle_map.block batch_obstacles n.pos)
         cand.nodes)
    pairs;
  (* An edge's id is its index in [owner_slot] and [owner_child], which
     hold the slot and child node id that own it. Int arrays: an array of
     more than 256 young tuples would force a minor collection. *)
  let owned =
    List.concat
      (List.mapi
         (fun slot (_cluster, candidate) ->
            List.map
              (fun (child_id, ppos, cpos) -> ((slot, child_id), (ppos, cpos)))
              (tree_edges candidate))
         pairs)
  in
  let owner_slot = Array.of_list (List.map (fun ((slot, _), _) -> slot) owned) in
  let owner_child = Array.of_list (List.map (fun ((_, child), _) -> child) owned) in
  let edges =
    List.mapi (fun eid (_, ends) -> { Pacor_route.Negotiation.edge_id = eid; ends }) owned
  in
  let result =
    Pacor_route.Negotiation.route ?workspace ~grid ~obstacles:batch_obstacles edges
  in
  (* Negotiation echoes the ids: a stale one names itself instead of
     dropping a path (and leaving a tree short of an edge) or raising a
     bare index error. *)
  let known eid =
    if eid < 0 || eid >= Array.length owner_slot then
      invalid_arg
        (Printf.sprintf
           "Cluster_route.negotiate: negotiation returned unknown edge id %d (have %d edges)"
           eid (Array.length owner_slot));
    eid
  in
  let slots = List.length pairs in
  let outcome =
    if result.success then begin
      (* Bucket the paths by owning slot in one pass, each bucket in
         negotiation's return order. *)
      let by_slot = Array.make slots [] in
      List.iter
        (fun (eid, path) ->
           let eid = known eid in
           let slot = owner_slot.(eid) in
           by_slot.(slot) <- (owner_child.(eid), path) :: by_slot.(slot))
        result.paths;
      Ok
        (List.mapi
           (fun slot (cluster, candidate) ->
              build_routed cluster candidate (List.rev by_slot.(slot)))
           pairs)
    end
    else begin
      let routed_edge = Array.make (Array.length owner_slot) false in
      List.iter (fun (eid, _) -> routed_edge.(known eid) <- true) result.paths;
      let failed = Array.make slots false in
      Array.iteri
        (fun eid slot -> if not routed_edge.(eid) then failed.(slot) <- true)
        owner_slot;
      Error failed
    end
  in
  (result.iterations, outcome)

let route ?workspace ~config ~grid ~obstacles clusters =
  let lm = List.filter Cluster.needs_matching clusters in
  if lm = [] then { routed = []; demoted = []; iterations = 0 }
  else begin
    let usable = Obstacle_map.free obstacles in
    let per_cluster =
      List.map (fun c -> (c, candidates_for ~config ~grid ~usable c)) lm
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
        (* Selection is exponential in the worst case; the workspace's
           budget may cut the search short. *)
        let alive =
          Option.map
            (fun ws () -> Pacor_route.Budget.alive (Pacor_route.Workspace.budget ws))
            workspace
        in
        (match Pacor_select.Tree_select.select ?alive ~config:sel_config per_cluster with
         | Ok sel -> sel.chosen
         | Error msg -> invalid_arg ("Cluster_route: " ^ msg))
    in
    (* Negotiation obstacles: [obstacles] (never written; each batch copies
       it); each edge's own endpoints are exempted inside the router. *)
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
        let fix_collisions chosen =
          (* Node cells of the clusters resolved so far, grown one cell at
             a time: a candidate collides iff one of its nodes is in it. *)
          let used = ref Point.Set.empty in
          List.map2
            (fun (_, cands) cand ->
               let collides (c : Candidate.t) =
                 List.exists (fun (n : Candidate.node) -> Point.Set.mem n.pos !used) c.nodes
               in
               let pick =
                 if collides cand then
                   List.find_opt (fun c -> not (collides c)) cands
                 else Some cand
               in
               (match pick with
                | Some c ->
                  List.iter (fun (n : Candidate.node) -> used := Point.Set.add n.pos !used) c.nodes;
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
        let rounds, outcome = negotiate ?workspace ~grid ~obstacles pairs in
        let iterations = iterations + rounds in
        match outcome with
        | Ok routed -> { routed; demoted; iterations }
        | Error failed ->
          (* Demote every cluster owning a failed edge and retry with the
             rest (Fig. 2's fallback to MST-based routing). Edge case:
             negotiation gave up with all edges individually routable but
             never jointly; demote the largest cluster. *)
          if not (Array.exists Fun.id failed) then begin
            let largest, _ =
              List.fold_left
                (fun (best, best_size) (slot, (c, _)) ->
                   let size = Cluster.size c in
                   if size > best_size then (slot, size) else (best, best_size))
                (0, -1)
                (List.mapi (fun i p -> (i, p)) pairs)
            in
            failed.(largest) <- true
          end;
          let keep, drop =
            List.partition
              (fun (slot, _) -> not failed.(slot))
              (List.mapi (fun i a -> (i, a)) pairs_and_choice)
          in
          attempt
            (List.map (fun (_, (cluster_cands, _)) -> cluster_cands) keep)
            (demoted @ List.map (fun (_, ((c, _), _)) -> c) drop)
            iterations
    in
    let out = attempt with_candidates no_candidates 0 in
    out
  end

let route_single ?workspace ~grid ~obstacles cluster candidate =
  match negotiate ?workspace ~grid ~obstacles [ (cluster, candidate) ] with
  | _, Ok [ routed ] -> Some routed
  | _, (Ok _ | Error _) -> None
