open Pacor_geom
open Pacor_grid
open Pacor_valve
open Pacor_dme

type lm_shape =
  | Tree of {
      candidate : Candidate.t;
      edge_paths : (int * Path.t) list;
    }
  | Pair of { path : Path.t; a : Valve.id; b : Valve.id }

type t = {
  cluster : Cluster.t;
  shape : lm_shape option;
  paths : Path.t list;
  claimed : Point.Set.t;
}

let claim_paths cluster paths =
  let base =
    List.fold_left
      (fun acc (v : Valve.t) -> Point.Set.add v.position acc)
      Point.Set.empty cluster.Cluster.valves
  in
  List.fold_left
    (fun acc p -> List.fold_left (fun s q -> Point.Set.add q s) acc (Path.points p))
    base paths

let make_plain cluster ~paths ~claimed =
  { cluster; shape = None; paths; claimed = Point.Set.union claimed (claim_paths cluster paths) }

let make_tree cluster ~candidate ~edge_paths =
  let paths = List.map snd edge_paths in
  {
    cluster;
    shape = Some (Tree { candidate; edge_paths });
    paths;
    claimed = claim_paths cluster paths;
  }

let make_pair cluster ~a ~b ~path =
  { cluster; shape = Some (Pair { path; a; b }); paths = [ path ]; claimed = claim_paths cluster [ path ] }

let make_singleton cluster =
  { cluster; shape = None; paths = []; claimed = claim_paths cluster [] }

let internal_length t = List.fold_left (fun acc p -> acc + Path.length p) 0 t.paths

let pair_middle path =
  let l = Path.length path in
  Path.nth path (l / 2)

let start_cells t =
  match t.shape with
  | Some (Tree { candidate; _ }) -> [ candidate.root ]
  | Some (Pair { path; _ }) -> [ pair_middle path ]
  | None -> Point.Set.elements t.claimed

let chain_lengths ~chain ~leg sinks =
  Array.init sinks (fun sink ->
    List.fold_left (fun acc (child, _parent) -> acc + leg child) 0 (chain ~sink))

let escape_anchor_lengths t =
  match t.shape with
  | None -> []
  | Some (Pair { path; a; b }) ->
    let l = Path.length path in
    let to_a = l / 2 and to_b = l - (l / 2) in
    (* The source end of [path] is valve [a]. *)
    [ (a, to_a); (b, to_b) ]
  | Some (Tree { candidate; edge_paths }) ->
    (* Valves indexed once: [List.nth] per sink is quadratic in cluster
       size, and this runs for every cluster on every rematch pass. *)
    let valves = Array.of_list t.cluster.Cluster.valves in
    if Array.length valves <> Array.length candidate.sinks then
      invalid_arg
        (Printf.sprintf
           "Routed.escape_anchor_lengths: cluster %d has %d valves but its \
            candidate has %d sinks"
           t.cluster.Cluster.id (Array.length valves) (Array.length candidate.sinks));
    (* Nodes and leg lengths indexed once per call, not searched per chain
       step: this runs for every tree each time its spread is read. A
       child without a path is a zero-length (coincident) edge; a child
       listed twice counts its first path, as [List.assoc_opt] would. *)
    let legs = Array.make (List.length candidate.nodes) 0 in
    List.iter
      (fun (child, p) -> if child >= 0 && child < Array.length legs then legs.(child) <- Path.length p)
      (List.rev edge_paths);
    chain_lengths ~chain:(Candidate.chain_index candidate) ~leg:(Array.get legs)
      (Array.length candidate.sinks)
    |> Array.mapi (fun sink l -> (valves.(sink).Valve.id, l)) |> Array.to_list

let is_length_matched_shape t = Option.is_some t.shape

let occupy ws t = Point.Set.iter (Pacor_route.Workspace.occupy ws ~id:t.cluster.Cluster.id) t.claimed
let vacate ws t = Point.Set.iter (Pacor_route.Workspace.vacate ws ~id:t.cluster.Cluster.id) t.claimed

let spread t =
  match escape_anchor_lengths t with
  | [] -> None
  | lengths ->
    let ls = List.map snd lengths in
    Some (List.fold_left Int.max min_int ls - List.fold_left Int.min max_int ls)

let with_edge_path t ~child path =
  match t.shape with
  | Some (Tree { candidate; edge_paths }) ->
    let old =
      match List.assoc_opt child edge_paths with
      | Some old -> old
      | None -> invalid_arg "Routed.with_edge_path: unknown edge"
    in
    let edge_paths =
      List.map (fun (c, p) -> if c = child then (c, path) else (c, p)) edge_paths
    in
    (* The old leg's interior cells leave the claim and the new leg's
       cells join it; the leg's ends are tree nodes, which stay. *)
    let claimed = ref t.claimed in
    for i = 1 to Path.length old - 1 do
      claimed := Point.Set.remove (Path.nth old i) !claimed
    done;
    Path.iter (fun q -> claimed := Point.Set.add q !claimed) path;
    { t with shape = Some (Tree { candidate; edge_paths }); paths = List.map snd edge_paths;
             claimed = !claimed }
  | Some (Pair _) | None -> invalid_arg "Routed.with_edge_path: not a tree route"

let pair_halves t =
  match t.shape with
  | Some (Pair { path; _ }) ->
    let l = Path.length path in
    Some (l / 2, l - (l / 2))
  | Some (Tree _) | None -> None
