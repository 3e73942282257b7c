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

let tree_chain_length candidate edge_paths ~sink =
  let chain = Candidate.chain_to_root candidate ~sink in
  List.fold_left
    (fun acc (child, _parent) ->
       match List.assoc_opt child edge_paths with
       | Some p -> acc + Path.length p
       | None -> acc (* zero-length (coincident) edge *))
    0 chain

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
    List.init (Array.length candidate.sinks) (fun sink_idx ->
      (valves.(sink_idx).Valve.id,
       tree_chain_length candidate edge_paths ~sink:sink_idx))

let is_length_matched_shape t = Option.is_some t.shape

let claims_of ts = List.fold_left (fun acc t -> Point.Set.union acc t.claimed) Point.Set.empty ts

let spread t =
  match escape_anchor_lengths t with
  | [] -> None
  | lengths ->
    let ls = List.map snd lengths in
    Some (List.fold_left max min_int ls - List.fold_left min max_int ls)

let with_edge_path t ~child path =
  match t.shape with
  | Some (Tree { candidate; edge_paths }) ->
    if not (List.mem_assoc child edge_paths) then
      invalid_arg "Routed.with_edge_path: unknown edge";
    let edge_paths =
      List.map (fun (c, p) -> if c = child then (c, path) else (c, p)) edge_paths
    in
    make_tree t.cluster ~candidate ~edge_paths
  | Some (Pair _) | None -> invalid_arg "Routed.with_edge_path: not a tree route"

let pair_halves t =
  match t.shape with
  | Some (Pair { path; _ }) ->
    let l = Path.length path in
    Some (l / 2, l - (l / 2))
  | Some (Tree _) | None -> None
