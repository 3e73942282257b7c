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
   (the paper's encircling-loop search) until usable cells appear.
   [place_many] returns every usable cell of the first non-empty ring,
   ordered by Manhattan distance to the snap point — alternative placements
   are the candidate diversity left when merging regions degenerate to a
   point (e.g. collinear sinks). *)
let place_many ~grid ~usable coord =
  let snapped = Tilted.nearest_grid_point coord in
  let max_radius = Routing_grid.width grid + Routing_grid.height grid in
  let ok p = Routing_grid.in_bounds grid p && usable p in
  let rec search r =
    if r > max_radius then []
    else begin
      match List.filter ok (Point.ring snapped r) with
      | [] -> search (r + 1)
      | candidates ->
        List.sort
          (fun a b ->
             let da = Point.manhattan snapped a and db = Point.manhattan snapped b in
             if da <> db then Int.compare da db else Point.compare a b)
          candidates
    end
  in
  search 0

let place ~grid ~usable coord =
  match place_many ~grid ~usable coord with [] -> None | p :: _ -> Some p

(* Embedded tree: concrete grid position per node; each child carries the
   merge-prescribed edge length in grid units (longer than the embedded
   Manhattan distance on detour-case edges). *)
type enode = {
  pos : Point.t;
  leaf : int option;
  kids : (int * enode) list;
}

(* One candidate with the root at [root_at], clamped into the root merging
   region. [root_cell] pins the root's grid placement instead of the
   snap-and-ring search, which diversifies candidates when that region is
   a single point. [None] when an internal node has no usable cell; leaves
   stay at their sinks whatever [usable] says. *)
let embed ?root_cell ~grid ~usable ~sinks mroot ~root_at () =
  let root_coord = Tilted.nearest_in mroot.Merge.region root_at in
  let is_root = ref true in
  let rec walk (node : Merge.node) coord =
    match node.children with
    | [] ->
      let idx =
        match node.topology with Topology.Leaf i -> i | Topology.Node _ -> assert false
      in
      Some { pos = sinks.(idx); leaf = Some idx; kids = [] }
    | children ->
      let placed =
        if !is_root then begin
          is_root := false;
          match root_cell with
          | Some cell -> Some cell
          | None -> place ~grid ~usable coord
        end
        else place ~grid ~usable coord
      in
      (match placed with
       | None -> None
       | Some pos ->
         let rec walk_kids acc = function
           | [] -> Some (List.rev acc)
           | ((child : Merge.node), edge_len) :: rest ->
             let child_coord = Tilted.nearest_in child.Merge.region coord in
             (match walk child child_coord with
              | None -> None
              | Some k -> walk_kids (((edge_len + 1) / 2, k) :: acc) rest)
         in
         (match walk_kids [] children with
          | None -> None
          | Some kids -> Some { pos; leaf = None; kids }))
  in
  match walk mroot root_coord with
  | None -> None
  | Some root ->
    let n = Array.length sinks in
    let lengths = Array.make n 0 in
    let edges = ref [] in
    let nodes = ref [] in
    let counter = ref 0 in
    (* Full-path estimates use the larger of the embedded Manhattan length
       and the merge-prescribed length: a detour-case edge will be padded
       to its prescribed length by the detour stage, so counting only the
       embedded distance would overstate the mismatch. *)
    let rec dfs node parent_id acc =
      let id = !counter in
      incr counter;
      nodes := { id; pos = node.pos; parent = parent_id; sink = node.leaf } :: !nodes;
      (match node.leaf with Some i -> lengths.(i) <- acc | None -> ());
      List.iter
        (fun (prescribed, kid) ->
           if not (Point.equal node.pos kid.pos) then
             edges := { parent_pos = node.pos; child_pos = kid.pos } :: !edges;
           let step = max (Point.manhattan node.pos kid.pos) prescribed in
           dfs kid (Some id) (acc + step))
        node.kids
    in
    dfs root None 0;
    let maxl = Array.fold_left max min_int lengths in
    let minl = Array.fold_left min max_int lengths in
    let edges = List.rev !edges in
    let total_estimate =
      List.fold_left (fun a e -> a + Point.manhattan e.parent_pos e.child_pos) 0 edges
    in
    Some
      {
        root = root.pos;
        nodes = List.rev !nodes;
        edges;
        sinks;
        full_path_lengths = lengths;
        mismatch = maxl - minl;
        total_estimate;
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
                  (fun cell ->
                     embed ~root_cell:cell ~grid ~usable ~sinks:sink_arr mroot
                       ~root_at:c ())
                  cells)
             samples)
        (Topology.alternatives sinks)
    in
    let key c =
      (c.root, List.sort compare (List.map (fun e -> (e.parent_pos, e.child_pos)) c.edges))
    in
    let rec dedup seen = function
      | [] -> []
      | c :: rest ->
        let k = key c in
        if List.mem k seen then dedup seen rest else c :: dedup (k :: seen) rest
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
