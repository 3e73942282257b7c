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
  let candidate, edge_paths =
    match original.shape with
    | Some (Routed.Tree { candidate; edge_paths }) -> (candidate, edge_paths)
    | Some (Routed.Pair _) | None -> invalid_arg "detour_tree: not a tree"
  in
  let anchor_lengths (r : Routed.t) =
    Array.of_list (List.map snd (Routed.escape_anchor_lengths r))
  in
  (* The tree is indexed once, not searched per step: its sink chains, its
     nodes by id, each node's children in node order, and the current
     route's leg per child (the first entry of [edge_paths], as
     [List.assoc_opt] reads it), which [lengthen_leg] keeps current. *)
  let chain = Candidate.chain_index candidate in
  let nodes = Candidate.nodes_by_id candidate in
  let kids = Array.make (Array.length nodes) [] in
  List.iter
    (fun (n : Candidate.node) -> Option.iter (fun p -> kids.(p) <- n :: kids.(p)) n.parent)
    (List.rev candidate.Candidate.nodes);
  let legs = Array.make (Array.length nodes) None in
  List.iter (fun (child, p) -> legs.(child) <- Some p) (List.rev edge_paths);
  (* Lengthen the leg [child] of [r], now [leg], to at least [target]
     edges. *)
  let lengthen_leg (r : Routed.t) child leg target =
    (* The leg may use its own cells but no other cell of the cluster:
       hold every claimed cell, release the leg's, and release the rest
       once done. *)
    let swap ~from ~into _ (c : char) = if c = from then into else c in
    mark ~grid mask Point.Set.iter r.claimed (swap ~from:usable ~into:held);
    mark ~grid mask List.iter (Path.points leg) (swap ~from:held ~into:usable);
    let usable_i i = Bytes.unsafe_get mask i = usable in
    let usable_p p = Routing_grid.in_bounds grid p && usable_i (Routing_grid.index grid p) in
    let result =
      match Pacor_route.Detour.lengthen leg ~target ~usable:usable_p with
      | Some _ as lengthened -> lengthened
      | None ->
        (* Bumps ran out of room: fall back to the paper's minimum-length
           bounded rerouting of the whole leg. When the leg's endpoints
           sit in a pocket too small for the target length, the search's
           block-cut certificate refuses it without a pop. Otherwise it
           may still fail after a long search, so its budget is capped:
           an uncapped budget dominates the whole stage's runtime on
           large chips. *)
        Pacor_route.Bounded_astar.search ~workspace ~grid ~usable:usable_i
          ~pop_budget:20_000
          ~source:(Path.source leg) ~target:(Path.target leg) ~min_length:target ()
    in
    mark ~grid mask Point.Set.iter r.claimed (swap ~from:held ~into:usable);
    Option.map
      (fun path ->
         legs.(child) <- Some path;
         Routed.with_edge_path r ~child path)
      result
  in
  (* Sinks in the subtree hanging off [child] — lengthening that leg adds
     to all of their full paths. *)
  let sinks_below child =
    let rec descend acc frontier =
      match frontier with
      | [] -> acc
      | id :: rest ->
        let kids = kids.(id) in
        let acc =
          List.fold_left
            (fun a (n : Candidate.node) ->
               match n.sink with Some s -> s :: a | None -> a)
            acc kids
        in
        descend acc (List.map (fun (n : Candidate.node) -> n.id) kids @ rest)
    in
    match nodes.(child).sink with
    | Some s -> [ s ]
    | None -> descend [] [ child ]
  in
  let rec loop (r : Routed.t) round =
    let lengths = anchor_lengths r in
    let maxl = Array.fold_left Int.max min_int lengths in
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
          let need = maxl - delta - len in
          (* Bump insertion moves in steps of two, so this is the amount the
             leg will actually grow by. *)
          let grow = 2 * ((need + 1) / 2) in
          let rec try_legs = function
            | [] -> None
            | (child, _parent) :: more ->
              if List.exists (Int.equal child) !detoured_this_round then
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
                  match legs.(child) with
                  | None -> try_legs more (* zero-length embedded edge *)
                  | Some leg ->
                    let target = Path.length leg + need in
                    (match lengthen_leg r child leg target with
                     | Some r' ->
                       detoured_this_round := child :: !detoured_this_round;
                       Some r'
                     | None -> try_legs more)
              end
          in
          (match try_legs (chain ~sink) with
           | Some r' -> handle_shorts r' rest
           | None -> None)
      in
      match handle_shorts r shorts with
      | Some r' -> loop r' (round + 1)
      | None -> (original, false) (* restore, per Algorithm 2 *)
    end
  in
  loop original 0

(* Whether [detour_tree] has anything to do, given [r]'s spread: only a
   tree whose spread exceeds [delta]. Any other tree leaves it at once
   with the mask unread, so the grid-sized mask fill is skipped when no
   tree needs a detour. *)
let exceeds ~delta (r : Routed.t) spread =
  match r.shape, spread with
  | Some (Routed.Tree _), Some s -> s > delta
  | _, _ -> false

let needs_detour ~delta r = exceeds ~delta r (Routed.spread r)

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

(* Each route with its spread, read once: the detour test, the sort key
   and the pair verdict all use it. *)
let with_spreads routed = List.map (fun (r : Routed.t) -> (Routed.spread r, r)) routed

let run_spread ~workspace ~grid ~delta ~theta spread_list =
  let mask =
    if List.exists (fun (s, r) -> exceeds ~delta r s) spread_list then
      Some (lease_mask ~workspace ~grid)
    else None
  in
  let matched = ref [] and unmatched = ref [] in
  (* Process the worst-mismatched trees first: they need the most detour
     space, and an easy cluster detoured early can consume exactly the
     cells a hard neighbour required. Results are returned in input
     order. *)
  let order =
    List.stable_sort
      (fun (a, _) (b, _) ->
         let key s = Option.value ~default:0 s in
         Int.compare (key b) (key a))
      spread_list
  in
  let process (spread, (r : Routed.t)) =
    match r.shape with
    | None -> r
    | Some (Routed.Pair _) ->
      let ok = match spread with Some s -> s <= delta | None -> false in
      if ok then matched := r.cluster.Pacor_valve.Cluster.id :: !matched
      else unmatched := r.cluster.Pacor_valve.Cluster.id :: !unmatched;
      r
    | Some (Routed.Tree _) ->
      (* A tree within [delta] has no short path: [detour_held] would hand
         it back unchanged with the mask as it was. *)
      let r', ok =
        match mask with
        | Some mask when exceeds ~delta r spread ->
          detour_held ~workspace ~grid ~mask ~delta ~theta r
        | Some _ | None -> (r, true)
      in
      if ok then matched := r'.cluster.Pacor_valve.Cluster.id :: !matched
      else unmatched := r'.cluster.Pacor_valve.Cluster.id :: !unmatched;
      r'
  in
  let results : (int, Routed.t) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun ((_, (r : Routed.t)) as entry) ->
       Hashtbl.replace results r.cluster.Pacor_valve.Cluster.id (process entry))
    order;
  let updated =
    List.map
      (fun (_, (r : Routed.t)) ->
         match Hashtbl.find_opt results r.cluster.Pacor_valve.Cluster.id with
         | Some r' -> r'
         | None -> r)
      spread_list
  in
  { updated; matched_ids = List.rev !matched; unmatched_ids = List.rev !unmatched }

let run ~workspace ~grid ~delta ~theta routed_list =
  run_spread ~workspace ~grid ~delta ~theta (with_spreads routed_list)

let around ~workspace ~grid ~delta ~theta assignments =
  let spread_list =
    with_spreads (List.map (fun (a : Escape_stage.assignment) -> a.routed) assignments)
  in
  if not (List.exists (fun (s, r) -> exceeds ~delta r s) spread_list) then assignments
  else begin
    let out = run_spread ~workspace ~grid ~delta ~theta spread_list in
    List.map2
      (fun routed (a : Escape_stage.assignment) -> { a with routed })
      out.updated assignments
  end
