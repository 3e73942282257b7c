(* DME candidate enumeration as it stood before the typed dedup keys and
   the list-free embedding: each placement filters and sorts a
   [Point.ring] list, the embedded tree is built as an intermediate
   record tree, and duplicates are found with polymorphic [compare] and
   [List.mem] over (root, sorted edge list) keys. Topologies come from
   [Topology_oracle]. Kept verbatim as the oracle that
   [Pacor_dme.Candidate.enumerate] must match candidate for candidate. *)

open Pacor_geom
open Pacor_grid
open Pacor_dme
open Pacor_dme.Candidate

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

type enode = {
  pos : Point.t;
  leaf : int option;
  kids : (int * enode) list;
}

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
    let rec dfs (node : enode) parent_id acc =
      let id = !counter in
      incr counter;
      nodes := { id; pos = node.pos; parent = parent_id; sink = node.leaf } :: !nodes;
      (match node.leaf with Some i -> lengths.(i) <- acc | None -> ());
      List.iter
        (fun (prescribed, (kid : enode)) ->
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
        (Topology_oracle.alternatives sinks)
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
