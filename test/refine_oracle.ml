(* Test oracles for the refinement stages: [Escape_stage.single] and
   [Detour_stage] as they were when every usable-cell probe was a
   [Point.Set] lookup, before both moved to a leased byte mask. The
   mask versions must return identical routes. *)

open Pacor_geom
open Pacor_grid
open Pacor_dme
open Pacor

(* The nearest-pin distance by brute force: the minimum of
   [Point.manhattan] over every pin, per cell. *)
let nearest_pin_brute ~grid pins i =
  let p = Routing_grid.point_of_index grid i in
  List.fold_left (fun acc q -> min acc (Point.manhattan p q)) max_int pins

(* Same heuristic policy as the production search: the nearest-pin
   distance when every pin is on the boundary ring, the box default
   otherwise. *)
let single ?workspace ~grid ~claimed ~pins ~start_cells () =
  match pins with
  | [] -> None
  | _ :: _ ->
    let heuristic =
      if List.for_all (Routing_grid.on_boundary grid) pins then
        Some (nearest_pin_brute ~grid pins)
      else None
    in
    let usable p =
      Routing_grid.free grid p
      && (not (Point.Set.mem p claimed))
      && not (Routing_grid.on_boundary grid p)
    in
    let spec =
      { Pacor_route.Astar.usable = (fun i -> usable (Routing_grid.point_of_index grid i));
        extra_cost = (fun _ -> 0) }
    in
    (match
       Pacor_route.Astar.search ?workspace ?heuristic ~grid ~spec ~sources:start_cells
         ~targets:pins ()
     with
     | Some path ->
       Some
         { Pacor_flow.Escape.idx = 0;
           start_cell = Path.source path;
           pin = Path.target path;
           path }
     | None -> None)

(* Detour one tree-routed cluster. [usable_base] already excludes static
   obstacles, grid bounds and everything outside this cluster. Returns the
   (possibly updated) route and whether it now satisfies delta. *)
let detour_tree ?workspace ~grid ~usable_base ~delta ~theta (original : Routed.t) =
  let candidate, _ =
    match original.shape with
    | Some (Routed.Tree { candidate; edge_paths }) -> (candidate, edge_paths)
    | Some (Routed.Pair _) | None -> invalid_arg "detour_tree: not a tree"
  in
  let anchor_lengths (r : Routed.t) =
    Array.of_list (List.map snd (Routed.escape_anchor_lengths r))
  in
  let edge_paths_of (r : Routed.t) =
    match r.shape with
    | Some (Routed.Tree { edge_paths; _ }) -> edge_paths
    | Some (Routed.Pair _) | None -> assert false
  in
  (* Lengthen the leg [child] of [r] to at least [target] edges. *)
  let lengthen_leg (r : Routed.t) child target =
    match List.assoc_opt child (edge_paths_of r) with
    | None -> None
    | Some leg ->
      let leg_cells = Point.Set.of_list (Path.points leg) in
      let own_others = Point.Set.diff r.claimed leg_cells in
      let usable p = usable_base p && not (Point.Set.mem p own_others) in
      (match Pacor_route.Detour.lengthen leg ~target ~usable with
       | Some path -> Some (Routed.with_edge_path r ~child path)
       | None ->
         (* Bumps ran out of room: fall back to the paper's minimum-length
            bounded rerouting of the whole leg. *)
         (* The fallback rarely succeeds when bumps found no room, so its
            search budget is capped — an uncapped budget dominates the
            whole stage's runtime on large chips. *)
         (match
            Pacor_route.Bounded_astar.search ?workspace ~grid
              ~usable:(fun i -> usable (Routing_grid.point_of_index grid i))
              ~pop_budget:20_000
              ~source:(Path.source leg) ~target:(Path.target leg) ~min_length:target ()
          with
          | Some path -> Some (Routed.with_edge_path r ~child path)
          | None -> None))
  in
  (* Sinks in the subtree hanging off [child] — lengthening that leg adds
     to all of their full paths. *)
  let sinks_below child =
    let rec descend acc frontier =
      match frontier with
      | [] -> acc
      | id :: rest ->
        let kids =
          List.filter_map
            (fun (n : Candidate.node) -> if n.parent = Some id then Some n else None)
            candidate.Candidate.nodes
        in
        let acc =
          List.fold_left
            (fun a (n : Candidate.node) ->
               match n.sink with Some s -> s :: a | None -> a)
            acc kids
        in
        descend acc (List.map (fun (n : Candidate.node) -> n.id) kids @ rest)
    in
    match List.find_opt (fun (n : Candidate.node) -> n.id = child) candidate.Candidate.nodes with
    | Some { Candidate.sink = Some s; _ } -> [ s ]
    | Some _ -> descend [] [ child ]
    | None -> []
  in
  let rec loop (r : Routed.t) round =
    let lengths = anchor_lengths r in
    let maxl = Array.fold_left max min_int lengths in
    let shorts =
      Array.to_list lengths
      |> List.mapi (fun i l -> (i, l))
      |> List.filter (fun (_, l) -> l < maxl - delta)
    in
    if shorts = [] then (r, true)
    else if round >= theta then (original, false) (* give up: restore *)
    else begin
      let detoured_this_round = ref [] in
      let rec handle_shorts r = function
        | [] -> Some r
        | (sink, len) :: rest ->
          let chain = Candidate.chain_to_root candidate ~sink in
          let need = maxl - delta - len in
          (* Bump insertion moves in steps of two, so this is the amount the
             leg will actually grow by. *)
          let grow = 2 * ((need + 1) / 2) in
          let rec try_legs = function
            | [] -> None
            | (child, _parent) :: more ->
              if List.mem child !detoured_this_round then
                (* A shared leg already grew this round; this full path was
                   lengthened with it (Algorithm 2's Fd check). *)
                Some r
              else begin
                (* Never grow a leg past [maxl] for any sink beneath it —
                   otherwise shared-leg detours escalate maxl forever. *)
                let safe =
                  List.for_all
                    (fun s -> lengths.(s) + grow <= maxl)
                    (sinks_below child)
                in
                if not safe then try_legs more
                else
                  match List.assoc_opt child (edge_paths_of r) with
                  | None -> try_legs more (* zero-length embedded edge *)
                  | Some leg ->
                    let target = Path.length leg + need in
                    (match lengthen_leg r child target with
                     | Some r' ->
                       detoured_this_round := child :: !detoured_this_round;
                       Some r'
                     | None -> try_legs more)
              end
          in
          (match try_legs chain with
           | Some r' -> handle_shorts r' rest
           | None -> None)
      in
      match handle_shorts r shorts with
      | Some r' -> loop r' (round + 1)
      | None -> (original, false) (* restore, per Algorithm 2 *)
    end
  in
  loop original 0

let detour_one ?workspace ~grid ~delta ~theta ~blocked (r : Routed.t) =
  let static = Routing_grid.obstacles grid in
  let usable_base p =
    Routing_grid.in_bounds grid p
    && Obstacle_map.free static p
    && not (Point.Set.mem p blocked)
  in
  detour_tree ?workspace ~grid ~usable_base ~delta ~theta r

let run ?workspace ~grid ~delta ~theta ~blocked routed_list : Detour_stage.outcome =
  let static = Routing_grid.obstacles grid in
  let global = ref blocked in
  let matched = ref [] and unmatched = ref [] in
  (* Process the worst-mismatched trees first: they need the most detour
     space, and an easy cluster detoured early can consume exactly the
     cells a hard neighbour required. Results are returned in input
     order. *)
  let order =
    List.stable_sort
      (fun (a : Routed.t) (b : Routed.t) ->
         let spread r = Option.value ~default:0 (Routed.spread r) in
         Int.compare (spread b) (spread a))
      routed_list
  in
  let process (r : Routed.t) =
    match r.shape with
    | None -> r
    | Some (Routed.Pair _) ->
      let ok = match Routed.spread r with Some s -> s <= delta | None -> false in
      if ok then matched := r.cluster.Pacor_valve.Cluster.id :: !matched
      else unmatched := r.cluster.Pacor_valve.Cluster.id :: !unmatched;
      r
    | Some (Routed.Tree _) ->
      let others = Point.Set.diff !global r.claimed in
      let usable_base p =
        Routing_grid.in_bounds grid p
        && Obstacle_map.free static p
        && not (Point.Set.mem p others)
      in
      let r', ok = detour_tree ?workspace ~grid ~usable_base ~delta ~theta r in
      global := Point.Set.union others r'.claimed;
      if ok then matched := r'.cluster.Pacor_valve.Cluster.id :: !matched
      else unmatched := r'.cluster.Pacor_valve.Cluster.id :: !unmatched;
      r'
  in
  let results : (int, Routed.t) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (r : Routed.t) ->
       Hashtbl.replace results r.cluster.Pacor_valve.Cluster.id (process r))
    order;
  let updated =
    List.map
      (fun (r : Routed.t) ->
         match Hashtbl.find_opt results r.cluster.Pacor_valve.Cluster.id with
         | Some r' -> r'
         | None -> r)
      routed_list
  in
  { Detour_stage.updated; matched_ids = List.rev !matched; unmatched_ids = List.rev !unmatched }
