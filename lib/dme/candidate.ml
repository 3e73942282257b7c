open Pacor_geom
open Pacor_grid

type edge = { parent_pos : Point.t; child_pos : Point.t }

type node = {
  id : int;
  pos : Point.t;
  parent : int option;
  sink : int option;
}

type t = {
  root : Point.t;
  nodes : node list;
  edges : edge list;
  sinks : Point.t array;
  full_path_lengths : int array;
  mismatch : int;
  total_estimate : int;
}

let nodes_by_id t =
  let by_id = Array.of_list t.nodes in
  Array.iteri
    (fun i n ->
       if n.id <> i then
         invalid_arg (Printf.sprintf "Candidate.nodes_by_id: node %d has id %d" i n.id))
    by_id;
  by_id

let chain_index t =
  let by_id = nodes_by_id t in
  (* The first leaf of each sink, as a search of [nodes] would find it. *)
  let leaves = Array.make (Array.length t.sinks) (-1) in
  Array.iter
    (fun n ->
       match n.sink with
       | Some s when s >= 0 && s < Array.length leaves && leaves.(s) < 0 -> leaves.(s) <- n.id
       | Some _ | None -> ())
    by_id;
  fun ~sink ->
    if sink < 0 || sink >= Array.length leaves || leaves.(sink) < 0 then
      invalid_arg "Candidate.chain_to_root: unknown sink";
    let rec up id acc =
      match by_id.(id).parent with
      | None -> List.rev acc
      | Some pid -> up pid ((id, pid) :: acc)
    in
    up leaves.(sink) []

let chain_to_root t ~sink = chain_index t ~sink

(* Place a tilted coordinate on a usable grid cell: snap, then expand rings
   (the paper's encircling-loop search) until usable cells appear. [scan]
   calls [f p d] on every usable in-bounds cell [p] of the first ring that
   has one, [d] being its Manhattan distance to the snap point. *)
let scan ~grid ~usable coord f =
  let c = Tilted.nearest_grid_point coord in
  let w = Routing_grid.width grid and h = Routing_grid.height grid in
  let found = ref false in
  let consider x y =
    if x >= 0 && x < w && y >= 0 && y < h then begin
      let p = Point.make x y in
      if usable p then begin
        found := true;
        f p (abs (x - c.x) + abs (y - c.y))
      end
    end
  in
  let rec search r =
    if r <= w + h then begin
      if r = 0 then consider c.x c.y
      else begin
        for dx = -r to r do
          consider (c.x + dx) (c.y + r);
          consider (c.x + dx) (c.y - r)
        done;
        for dy = -r + 1 to r - 1 do
          consider (c.x + r) (c.y + dy);
          consider (c.x - r) (c.y + dy)
        done
      end;
      if not !found then search (r + 1)
    end
  in
  search 0

(* Every cell [scan] finds, nearest first, ties in [Point.compare] order:
   alternative placements are the candidate diversity left when merging
   regions degenerate to a point (e.g. collinear sinks). *)
let place_many ~grid ~usable coord =
  let cells = ref [] in
  scan ~grid ~usable coord (fun p d -> cells := (d, p) :: !cells);
  List.sort
    (fun (da, a) (db, b) -> if da <> db then Int.compare da db else Point.compare a b)
    !cells
  |> List.map snd

(* The head of [place_many]'s list, without the list. *)
let place ~grid ~usable coord =
  let best = ref None and best_d = ref max_int in
  scan ~grid ~usable coord (fun p d ->
    match !best with
    | Some b when d > !best_d || (d = !best_d && Point.compare p b > 0) -> ()
    | Some _ | None ->
      best := Some p;
      best_d := d);
  !best

exception Unplaceable

let leaf_index (node : Merge.node) =
  match node.topology with Topology.Leaf i -> i | Topology.Node _ -> assert false

(* One candidate with the root placed on [root_cell], embedded top-down
   from [root_coord] (a point of the root merging region). Nodes are
   numbered in preorder as they are placed; each child carries the
   merge-prescribed edge length in grid units (longer than the embedded
   Manhattan distance on detour-case edges). [None] when an internal node
   has no usable cell; leaves stay at their sinks whatever [usable] says. *)
let embed ~root_cell ~grid ~usable ~sinks (mroot : Merge.node) ~root_coord =
  let lengths = Array.make (Array.length sinks) 0 in
  let nodes = ref [] and edges = ref [] and count = ref 0 and total = ref 0 in
  (* Full-path estimates use the larger of the embedded Manhattan length
     and the merge-prescribed length: a detour-case edge will be padded
     to its prescribed length by the detour stage, so counting only the
     embedded distance would overstate the mismatch. *)
  let rec visit (node : Merge.node) coord pos parent acc =
    let id = !count in
    incr count;
    let sink = match node.children with [] -> Some (leaf_index node) | _ :: _ -> None in
    nodes := { id; pos; parent; sink } :: !nodes;
    Option.iter (fun i -> lengths.(i) <- acc) sink;
    List.iter
      (fun ((child : Merge.node), edge_len) ->
         let coord = Tilted.nearest_in child.region coord in
         let cpos =
           match child.children with
           | [] -> sinks.(leaf_index child)
           | _ :: _ ->
             (match place ~grid ~usable coord with
              | Some p -> p
              | None -> raise_notrace Unplaceable)
         in
         let d = Point.manhattan pos cpos in
         if d > 0 then begin
           edges := { parent_pos = pos; child_pos = cpos } :: !edges;
           total := !total + d
         end;
         visit child coord cpos (Some id) (acc + Int.max d ((edge_len + 1) / 2)))
      node.children
  in
  let root = match mroot.children with [] -> sinks.(leaf_index mroot) | _ :: _ -> root_cell in
  match visit mroot root_coord root None 0 with
  | exception Unplaceable -> None
  | () ->
    Some
      {
        root;
        nodes = List.rev !nodes;
        edges = List.rev !edges;
        sinks;
        full_path_lengths = lengths;
        mismatch =
          Array.fold_left Int.max min_int lengths - Array.fold_left Int.min max_int lengths;
        total_estimate = !total;
      }

let edge_ends t = List.map (fun e -> (e.parent_pos, e.child_pos)) t.edges

let enumerate ~grid ~usable ?(max_candidates = 8) sinks =
  match sinks with
  | [] -> []
  | [ p ] ->
    [ { root = p;
        nodes = [ { id = 0; pos = p; parent = None; sink = Some 0 } ];
        edges = [];
        sinks = [| p |];
        full_path_lengths = [| 0 |];
        mismatch = 0;
        total_estimate = 0;
      } ]
  | _ :: _ :: _ ->
    let sink_arr = Array.of_list sinks in
    (* Alternate balanced topologies (for small clusters) and, per
       topology, several root placements: each tilted sample contributes
       its best few grid placements, so degenerate (single-point) merging
       regions still yield several distinct trees. *)
    let cands =
      List.concat_map
        (fun topo ->
           let mroot = Merge.build ~sinks:sink_arr topo in
           let samples = Tilted.sample mroot.Merge.region (2 * max_candidates) in
           List.concat_map
             (fun c ->
                let root_coord = Tilted.nearest_in mroot.Merge.region c in
                let cells = place_many ~grid ~usable root_coord in
                let cells = List.filteri (fun i _ -> i < 4) cells in
                List.filter_map
                  (fun root_cell ->
                     embed ~root_cell ~grid ~usable ~sinks:sink_arr mroot ~root_coord)
                  cells)
             samples)
        (Topology.alternatives sinks)
    in
    (* A candidate repeats an earlier one when its root and its sorted
       edge list are the same. *)
    let compare_edge a b =
      let c = Point.compare a.parent_pos b.parent_pos in
      if c <> 0 then c else Point.compare a.child_pos b.child_pos
    in
    let same (r1, e1) (r2, e2) =
      Point.equal r1 r2 && List.equal (fun a b -> compare_edge a b = 0) e1 e2
    in
    let rec dedup seen = function
      | [] -> []
      | c :: rest ->
        let k = (c.root, List.sort compare_edge c.edges) in
        if List.exists (same k) seen then dedup seen rest else c :: dedup (k :: seen) rest
    in
    let distinct = dedup [] cands in
    let sorted =
      List.sort
        (fun a b ->
           if a.mismatch <> b.mismatch then Int.compare a.mismatch b.mismatch
           else if a.total_estimate <> b.total_estimate then
             Int.compare a.total_estimate b.total_estimate
           else Point.compare a.root b.root)
        distinct
    in
    List.filteri (fun i _ -> i < max_candidates) sorted

let pp ppf t =
  Format.fprintf ppf "root=%a dL=%d est=%d edges=%d" Point.pp t.root t.mismatch
    t.total_estimate (List.length t.edges)
