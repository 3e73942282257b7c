(* [Solution.validate] as it stood before the one-pass judge: legality
   over each cluster's [cluster_cells] (claimed cells and escape cells,
   two [Point.Set] unions per cluster), then disjointness through a
   [Hashtbl] keyed by point. Kept verbatim as the oracle the one-pass
   validator must match verdict for verdict and message for message,
   order included. *)

open Pacor_geom
open Pacor_grid
open Pacor_valve
open Pacor
open Solution

let cluster_cells rc =
  let escape_cells =
    match rc.escape with
    | None -> Point.Set.empty
    | Some e -> Point.Set.of_list (Path.points e.Pacor_flow.Escape.path)
  in
  Point.Set.union rc.routed.Routed.claimed escape_cells

let validate (t : t) =
  let errors = ref [] in
  let err fmt = Format.kasprintf (fun s -> errors := s :: !errors) fmt in
  let grid = t.problem.Problem.grid in
  let static = Routing_grid.obstacles grid in
  (* 1. Cells legal. *)
  List.iter
    (fun rc ->
       Point.Set.iter
         (fun p ->
            if not (Routing_grid.in_bounds grid p) then
              err "cluster %d uses out-of-bounds cell %a" rc.routed.Routed.cluster.Cluster.id
                Point.pp p
            else if Obstacle_map.blocked static p then
              err "cluster %d routes over obstacle %a" rc.routed.Routed.cluster.Cluster.id
                Point.pp p)
         (cluster_cells rc))
    t.clusters;
  (* 2. Cross-cluster vertex-disjointness. *)
  let owner : (Point.t, int) Hashtbl.t = Hashtbl.create 1024 in
  List.iter
    (fun rc ->
       let id = rc.routed.Routed.cluster.Cluster.id in
       Point.Set.iter
         (fun p ->
            match Hashtbl.find_opt owner p with
            | Some other when other <> id ->
              err "clusters %d and %d overlap at %a" other id Point.pp p
            | Some _ | None -> Hashtbl.replace owner p id)
         (cluster_cells rc))
    t.clusters;
  (* 3. Escapes end on distinct problem pins. *)
  let used_pins = Hashtbl.create 16 in
  List.iter
    (fun rc ->
       match rc.escape with
       | None -> ()
       | Some e ->
         let pin = e.Pacor_flow.Escape.pin in
         if not (List.exists (Point.equal pin) t.problem.Problem.pins) then
           err "cluster %d escapes to non-pin %a" rc.routed.Routed.cluster.Cluster.id
             Point.pp pin;
         (match Hashtbl.find_opt used_pins pin with
          | Some other ->
            err "pin %a used by clusters %d and %d" Point.pp pin other
              rc.routed.Routed.cluster.Cluster.id
          | None -> Hashtbl.replace used_pins pin rc.routed.Routed.cluster.Cluster.id))
    t.clusters;
  (* 4. Completion. *)
  List.iter
    (fun rc ->
       if rc.escape = None then
         err "cluster %d has no control pin" rc.routed.Routed.cluster.Cluster.id)
    t.clusters;
  let covered =
    List.concat_map (fun rc -> Cluster.valve_ids rc.routed.Routed.cluster) t.clusters
    |> List.sort Int.compare
  in
  let all =
    List.map (fun (v : Valve.t) -> v.id) t.problem.Problem.valves |> List.sort Int.compare
  in
  if covered <> all then err "routed clusters do not cover the valve set exactly";
  (* 5. Matched clusters really match. *)
  List.iter
    (fun rc ->
       if rc.matched then begin
         match Routed.spread rc.routed with
         | Some s when s <= t.problem.Problem.delta -> ()
         | Some s ->
           err "cluster %d marked matched but spread is %d > delta=%d"
             rc.routed.Routed.cluster.Cluster.id s t.problem.Problem.delta
         | None ->
           err "cluster %d marked matched but has no length-matched shape"
             rc.routed.Routed.cluster.Cluster.id
       end)
    t.clusters;
  (* 6. Pin sharing respects compatibility. *)
  List.iter
    (fun rc ->
       if not (Valve.pairwise_compatible rc.routed.Routed.cluster.Cluster.valves) then
         err "cluster %d shares a pin between incompatible valves"
           rc.routed.Routed.cluster.Cluster.id)
    t.clusters;
  match List.rev !errors with [] -> Ok () | es -> Error es
