open Pacor_geom
open Pacor_grid
open Pacor_dme

type outcome = {
  updated : Routed.t list;
  matched_ids : int list;
  unmatched_ids : int list;
}

(* The detours' usable-cell mask, one byte per cell, leased from the
   workspace: [usable] marks a cell a detour may occupy (the value
   [Obstacle_map.fill_free] writes for a free cell), [held] a cell of the
   cluster being detoured that the current leg must avoid, [blocked]
   anything else. Each probe is one byte read instead of a [Point.Set]
   lookup, and the per-cluster and per-leg exclusions are edits of the
   mask instead of set differences and unions. *)
let usable = '\001'
let held = '\002'
let blocked_cell = '\000'

(* Rewrite each in-bounds cell [i] of [cells] from its byte [c] to [f i c]. *)
let mark ~grid mask iter cells f =
  iter
    (fun p ->
       if Routing_grid.in_bounds grid p then begin
         let i = Routing_grid.index grid p in
         Bytes.unsafe_set mask i (f i (Bytes.unsafe_get mask i))
       end)
    cells

(* Usable exactly where the owner layer's occupied map is free. *)
let lease_mask ~workspace ~grid =
  let mask =
    Pacor_route.Workspace.scratch_bytes workspace ~slot:3 ~len:(Routing_grid.cells grid)
  in
  Obstacle_map.fill_free (Pacor_route.Workspace.occupied workspace) mask;
  mask

(* Detour one tree-routed cluster. [mask] marks usable exactly the
   statically free in-bounds cells outside every other cluster and
   blockage; the cluster's own cells are usable. Returns the (possibly
   updated) route and whether it now satisfies delta; [mask] is as it
   was on return. *)
let detour_tree ~workspace ~grid ~mask ~delta ~theta (original : Routed.t) =
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
      (* The leg may use its own cells but no other cell of the cluster:
         hold every claimed cell, release the leg's, and release the rest
         once done. *)
      let swap ~from ~into _ c = if c = from then into else c in
      mark ~grid mask Point.Set.iter r.claimed (swap ~from:usable ~into:held);
      mark ~grid mask List.iter (Path.points leg) (swap ~from:held ~into:usable);
      let usable_i i = Bytes.unsafe_get mask i = usable in
      let usable_p p = Routing_grid.in_bounds grid p && usable_i (Routing_grid.index grid p) in
      let result =
        match Pacor_route.Detour.lengthen leg ~target ~usable:usable_p with
        | Some path -> Some (Routed.with_edge_path r ~child path)
        | None ->
          (* Bumps ran out of room: fall back to the paper's minimum-length
             bounded rerouting of the whole leg. When the leg's endpoints
             sit in a pocket too small for the target length, the search's
             block-cut certificate refuses it without a pop. Otherwise it
             may still fail after a long search, so its budget is capped:
             an uncapped budget dominates the whole stage's runtime on
             large chips. *)
          (match
             Pacor_route.Bounded_astar.search ~workspace ~grid ~usable:usable_i
               ~pop_budget:20_000
               ~source:(Path.source leg) ~target:(Path.target leg) ~min_length:target ()
           with
           | Some path -> Some (Routed.with_edge_path r ~child path)
           | None -> None)
      in
      mark ~grid mask Point.Set.iter r.claimed (swap ~from:held ~into:usable);
      result
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

(* Whether [detour_tree] has anything to do: only a tree whose spread
   exceeds [delta]. Any other tree leaves it at once with the mask
   unread, so the grid-sized mask fill is skipped when no tree needs a
   detour. *)
let needs_detour ~delta (r : Routed.t) =
  match r.shape, Routed.spread r with
  | Some (Routed.Tree _), Some s -> s > delta
  | _, _ -> false

(* Detour [r] on [mask], which tracks the owner layer: [r]'s own cells
   (the statically free ones) are opened for its detour and its updated
   cells blocked after, as the layer moves from its old to its new
   route. *)
let detour_held ~workspace ~grid ~mask ~delta ~theta (r : Routed.t) =
  mark ~grid mask Point.Set.iter r.claimed (fun i _ ->
    if Routing_grid.free_i grid i then usable else blocked_cell);
  let r', ok = detour_tree ~workspace ~grid ~mask ~delta ~theta r in
  mark ~grid mask Point.Set.iter r'.claimed (fun _ _ -> blocked_cell);
  if r' != r then begin
    Routed.vacate workspace r;
    Routed.occupy workspace r'
  end;
  (r', ok)

let detour_one ~workspace ~grid ~delta ~theta (r : Routed.t) =
  match r.shape with
  | Some (Routed.Tree _) when not (needs_detour ~delta r) -> (r, true)
  | _ -> detour_held ~workspace ~grid ~mask:(lease_mask ~workspace ~grid) ~delta ~theta r

let run ~workspace ~grid ~delta ~theta routed_list =
  let mask =
    if List.exists (needs_detour ~delta) routed_list then Some (lease_mask ~workspace ~grid)
    else None
  in
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
      let r', ok =
        match mask with
        | None -> (r, true)
        | Some mask -> detour_held ~workspace ~grid ~mask ~delta ~theta r
      in
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
  { updated; matched_ids = List.rev !matched; unmatched_ids = List.rev !unmatched }

let around ~workspace ~grid ~delta ~theta assignments =
  let routed = List.map (fun (a : Escape_stage.assignment) -> a.routed) assignments in
  if not (List.exists (needs_detour ~delta) routed) then assignments
  else begin
    let out = run ~workspace ~grid ~delta ~theta routed in
    List.map2
      (fun routed (a : Escape_stage.assignment) -> { a with routed })
      out.updated assignments
  end
