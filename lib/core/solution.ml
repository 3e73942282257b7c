open Pacor_geom
open Pacor_grid
open Pacor_valve

type routed_cluster = {
  routed : Routed.t;
  escape : Pacor_flow.Escape.routed option;
  lengths : (Valve.id * int) list;
  matched : bool;
}

type stage_outcome =
  | Completed
  | Degraded of string
  | Timed_out

type t = {
  problem : Problem.t;
  config : Config.t;
  clusters : routed_cluster list;
  initial_multi_clusters : int;
  runtime_s : float;
  stage_seconds : (string * float) list;
  stage_search : (string * Pacor_route.Search_stats.snapshot) list;
  stage_outcomes : (string * stage_outcome) list;
  budget_exhausted : Pacor_route.Budget.reason option;
}

let assemble ~delta (r : Routed.t) escape =
  let escape_len =
    match escape with None -> 0 | Some (e : Pacor_flow.Escape.routed) -> Path.length e.path
  in
  let lengths =
    List.map (fun (vid, l) -> (vid, l + escape_len)) (Routed.escape_anchor_lengths r)
  in
  let matched =
    Routed.is_length_matched_shape r
    && escape <> None
    && (match Routed.spread r with Some s -> s <= delta | None -> false)
  in
  { routed = r; escape; lengths; matched }

type measured = {
  seconds : float;
  search : Pacor_route.Search_stats.snapshot;
  outcome : stage_outcome;
}

let measure workspace f =
  let budget = Pacor_route.Workspace.budget workspace in
  let snapshot () = Pacor_route.Search_stats.snapshot (Pacor_route.Workspace.stats workspace) in
  let before = Pacor_route.Budget.exhausted budget in
  let s0 = snapshot () in
  let start = Pacor_route.Clock.now_mono () in
  let result = f () in
  let seconds = Pacor_route.Clock.now_mono () -. start in
  let search = Pacor_route.Search_stats.diff (snapshot ()) s0 in
  let outcome =
    match before, Pacor_route.Budget.exhausted budget with
    | None, None -> Completed
    | None, Some Pacor_route.Budget.Deadline -> Timed_out
    | None, Some r -> Degraded (Pacor_route.Budget.reason_label r)
    | Some r, _ ->
      (* Exhausted before the stage even started: it ran in fail-fast
         mode (or was skipped outright at its gate). *)
      Degraded ("skipped: " ^ Pacor_route.Budget.reason_label r)
  in
  (result, { seconds; search; outcome })

let add_stages t stages =
  let column f = List.map (fun (label, m) -> (label, f m)) stages in
  { t with
    stage_seconds = t.stage_seconds @ column (fun m -> m.seconds);
    stage_search = t.stage_search @ column (fun m -> m.search);
    stage_outcomes = t.stage_outcomes @ column (fun m -> m.outcome) }

let degraded t =
  List.exists (fun (_, o) -> o <> Completed) t.stage_outcomes

let pp_stage_outcome ppf = function
  | Completed -> Format.pp_print_string ppf "completed"
  | Degraded r -> Format.fprintf ppf "degraded (%s)" r
  | Timed_out -> Format.pp_print_string ppf "timed out"

let pp_outcomes ppf t =
  match t.budget_exhausted with
  | None -> Format.pp_print_string ppf "all stages completed"
  | Some reason ->
    Format.fprintf ppf "budget exhausted (%s): %a"
      (Pacor_route.Budget.reason_label reason)
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
         (fun ppf (label, o) ->
            Format.fprintf ppf "%s %a" label pp_stage_outcome o))
      (List.filter (fun (_, o) -> o <> Completed) t.stage_outcomes)

type stats = {
  clusters : int;
  matched_clusters : int;
  matched_length : int;
  total_length : int;
  completion : float;
  runtime_s : float;
}

let escape_length rc =
  match rc.escape with None -> 0 | Some e -> Path.length e.Pacor_flow.Escape.path

let cluster_total_length rc = Routed.internal_length rc.routed + escape_length rc

let stats (t : t) =
  let matched = List.filter (fun rc -> rc.matched) t.clusters in
  let total_valves = Problem.valve_count t.problem in
  let routed_valves =
    List.fold_left
      (fun acc rc ->
         if rc.escape <> None then acc + Cluster.size rc.routed.Routed.cluster else acc)
      0 t.clusters
  in
  {
    clusters = t.initial_multi_clusters;
    matched_clusters = List.length matched;
    matched_length = List.fold_left (fun a rc -> a + cluster_total_length rc) 0 matched;
    total_length = List.fold_left (fun a rc -> a + cluster_total_length rc) 0 t.clusters;
    completion =
      (if total_valves = 0 then 1.0
       else float_of_int routed_valves /. float_of_int total_valves);
    runtime_s = t.runtime_s;
  }

let occupies rc p =
  Point.Set.mem p rc.routed.Routed.claimed
  || match rc.escape with Some e -> Path.mem e.Pacor_flow.Escape.path p | None -> false

(* Who holds each routed cell, for the disjointness check: open
   addressing over grid indices, at most three quarters full, sized by
   the cells walked (never by the grid). One int per slot packs the
   cell's index above the position, in the cluster list, of the cluster
   holding it, so a call allocates half what a second array would.
   Cells off the grid have no index and go to a short side list. *)
type owners = {
  slots : int array;  (* (index lsl bits) lor position, or -1 when empty *)
  bits : int;
  mask : int;
  mutable off_grid : (Point.t * int) list;  (* cell, position *)
}

let owners_for ~cells ~clusters =
  let size = ref 16 and bits = ref 1 in
  while 3 * !size < 4 * cells do size := 2 * !size done;
  while 1 lsl !bits < clusters do incr bits done;
  { slots = Array.make !size (-1); bits = !bits; mask = !size - 1; off_grid = [] }

(* The position of the cluster holding grid cell [i]: the first to claim
   it, so [pos] when [i] was free (and is now stamped as [pos]'s). *)
let rec claim o i pos slot =
  let v = o.slots.(slot) in
  if v < 0 then begin
    o.slots.(slot) <- (i lsl o.bits) lor pos;
    pos
  end
  else if v lsr o.bits = i then v land ((1 lsl o.bits) - 1)
  else claim o i pos ((slot + 1) land o.mask)

let claim_index o i pos = claim o i pos ((i * 0x9E3779B97F4A7C1) lsr 17 land o.mask)

let claim_off_grid o p pos =
  match List.assoc_opt p o.off_grid with
  | Some other -> other
  | None ->
    o.off_grid <- (p, pos) :: o.off_grid;
    pos

let validate (t : t) =
  let errors = ref [] in
  let err fmt = Format.kasprintf (fun s -> errors := s :: !errors) fmt in
  let grid = t.problem.Problem.grid in
  let static = Routing_grid.obstacles grid in
  (* 1–2. One walk over each cluster's claimed cells and escape path checks
     every cell's legality and stamps its owner. The walk visits a cell
     shared by the claimed set and the escape twice and in no particular
     order, so the few offending cells are sorted and deduplicated per
     cluster into the order of the sorted cell union. Overlaps are
     reported after every legality message; a cell's owner is the first
     cluster, in list order, that holds it. *)
  let cells =
    List.fold_left
      (fun n rc ->
         n + Point.Set.cardinal rc.routed.Routed.claimed
         + match rc.escape with None -> 0 | Some e -> Path.length e.Pacor_flow.Escape.path + 1)
      0 t.clusters
  in
  let ids = Array.of_list (List.map (fun rc -> rc.routed.Routed.cluster.Cluster.id) t.clusters) in
  let owners = owners_for ~cells ~clusters:(Array.length ids) in
  let overlaps = ref [] in
  List.iteri
    (fun pos rc ->
       let id = ids.(pos) in
       let illegal = ref [] and clashes = ref [] in
       let visit (p : Point.t) =
         let other =
           if Routing_grid.in_bounds grid p then begin
             let i = Routing_grid.index grid p in
             if not (Obstacle_map.free_i static i) then illegal := p :: !illegal;
             claim_index owners i pos
           end
           else begin
             illegal := p :: !illegal;
             claim_off_grid owners p pos
           end
         in
         if ids.(other) <> id then clashes := (p, ids.(other)) :: !clashes
       in
       Point.Set.iter visit rc.routed.Routed.claimed;
       Option.iter (fun e -> Path.iter visit e.Pacor_flow.Escape.path) rc.escape;
       List.iter
         (fun p ->
            if not (Routing_grid.in_bounds grid p) then
              err "cluster %d uses out-of-bounds cell %a" id Point.pp p
            else err "cluster %d routes over obstacle %a" id Point.pp p)
         (List.sort_uniq Point.compare !illegal);
       if !clashes <> [] then
         overlaps :=
           (id, List.sort_uniq (fun (p, _) (q, _) -> Point.compare p q) !clashes) :: !overlaps)
    t.clusters;
  List.iter
    (fun (id, clashes) ->
       List.iter
         (fun (p, other) -> err "clusters %d and %d overlap at %a" other id Point.pp p)
         clashes)
    (List.rev !overlaps);
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

let pp_stats ppf s =
  Format.fprintf ppf
    "clusters=%d matched=%d matched_len=%d total_len=%d completion=%.0f%% runtime=%.2fs"
    s.clusters s.matched_clusters s.matched_length s.total_length (100.0 *. s.completion)
    s.runtime_s
