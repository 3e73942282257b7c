open Pacor_geom
open Pacor_grid
open Pacor_valve

type t = {
  name : string;
  grid : Routing_grid.t;
  rules : Design_rules.t;
  valves : Valve.t list;
  lm_clusters : Cluster.t list;
  pins : Point.t list;
  delta : int;
}

let rec first_duplicate compare = function
  | [] | [ _ ] -> None
  | a :: (b :: _ as rest) -> if compare a b = 0 then Some a else first_duplicate compare rest

(* The instance text carries a name on its [name] line, which the parser
   cuts at [#], trims, splits on single spaces and joins back with one
   space. A name survives that round trip iff reading its line gives it
   back: no newline or [#], no leading space, no trailing whitespace, no
   doubled space. Any other name would come back changed, and with it
   the problem's fingerprint. *)
let text_safe_name name =
  (not (String.contains name '\n'))
  && (not (String.contains name '#'))
  &&
  match
    List.filter (fun s -> s <> "") (String.split_on_char ' ' (String.trim ("name " ^ name)))
  with
  | _ :: tokens -> String.equal name (String.concat " " tokens)
  | [] -> false

let create ?(name = "unnamed") ?(rules = Design_rules.default) ~grid ~valves
    ?(lm_clusters = []) ~pins ?(delta = 1) () =
  let err fmt = Format.kasprintf (fun s -> Error s) fmt in
  if not (text_safe_name name) then
    err "name %S cannot be carried by the instance text (newline, '#', leading \
         space, trailing whitespace or doubled space)" name
  else if valves = [] then err "no valves"
  else if delta < 0 then err "negative delta"
  else begin
    let ids = List.sort Int.compare (List.map (fun (v : Valve.t) -> v.id) valves) in
    match first_duplicate Int.compare ids with
    | Some id -> err "duplicate valve id %d" id
    | None ->
      let positions =
        List.sort Point.compare (List.map (fun (v : Valve.t) -> v.position) valves)
      in
      (match first_duplicate Point.compare positions with
       | Some p -> err "two valves share position %a" Point.pp p
       | None ->
         let bad_valve =
           List.find_opt
             (fun (v : Valve.t) ->
                (not (Routing_grid.in_bounds grid v.position))
                || Routing_grid.blocked grid v.position)
             valves
         in
         (match bad_valve with
          | Some v -> err "valve %d sits on a blocked or out-of-bounds cell" v.id
          | None ->
            let valve_cells =
              Point.Set.of_list (List.map (fun (v : Valve.t) -> v.position) valves)
            in
            let bad_pin =
              List.find_opt
                (fun p ->
                   (not (Routing_grid.on_boundary grid p))
                   || Routing_grid.blocked grid p
                   || Point.Set.mem p valve_cells)
                pins
            in
            (match bad_pin with
             | Some p -> err "pin %a is not a free boundary cell" Point.pp p
             | None ->
               (match first_duplicate Point.compare (List.sort Point.compare pins) with
                | Some p -> err "duplicate pin %a" Point.pp p
                | None ->
                  if List.length pins < List.length valves then
                    err "fewer pins (%d) than valves (%d)" (List.length pins)
                      (List.length valves)
                  else begin
                    (* Membership by binary search over the sorted ids. *)
                    let known = Array.of_list ids in
                    let rec mem id lo hi =
                      lo < hi
                      &&
                      let mid = (lo + hi) lsr 1 in
                      if known.(mid) < id then mem id (mid + 1) hi
                      else known.(mid) = id || mem id lo mid
                    in
                    let bad_seed =
                      List.find_opt
                        (fun (c : Cluster.t) ->
                           (not c.length_matched)
                           || List.exists
                                (fun id -> not (mem id 0 (Array.length known)))
                                (Cluster.valve_ids c))
                        lm_clusters
                    in
                    match bad_seed with
                    | Some c ->
                      err "seed cluster %d is not a valid length-matched cluster" c.id
                    | None ->
                      Ok { name; grid; rules; valves; lm_clusters; pins; delta }
                  end))))
  end

let create_exn ?name ?rules ~grid ~valves ?lm_clusters ~pins ?delta () =
  match create ?name ?rules ~grid ~valves ?lm_clusters ~pins ?delta () with
  | Ok t -> t
  | Error msg -> invalid_arg ("Problem.create: " ^ msg)

let valve_count t = List.length t.valves
let pin_count t = List.length t.pins
let obstacle_count t = Obstacle_map.blocked_count (Routing_grid.obstacles t.grid)
let find_valve t id = List.find_opt (fun (v : Valve.t) -> v.id = id) t.valves

let reserved_cells t =
  List.fold_left
    (fun acc p -> Point.Set.add p acc)
    (Point.Set.of_list (List.map (fun (v : Valve.t) -> v.position) t.valves))
    t.pins

let pp_summary ppf t =
  Format.fprintf ppf "%s: %dx%d grid, %d valves, %d pins, %d obstacles, delta=%d" t.name
    (Routing_grid.width t.grid) (Routing_grid.height t.grid) (valve_count t) (pin_count t)
    (obstacle_count t) t.delta

let with_delta t delta =
  if delta < 0 then Error "negative delta" else Ok { t with delta }

(* Design-loop deltas (the serving layer's edit operations). Each one
   rebuilds the instance through [create] so the full invariant set of a
   fresh problem is re-checked, and each is a pure function — the input
   instance is never mutated, so a daemon can keep serving the old version
   if the edit turns out to be invalid. *)

let move_valve t id pos =
  let err fmt = Format.kasprintf (fun s -> Error s) fmt in
  match find_valve t id with
  | None -> err "move_valve: unknown valve id %d" id
  | Some v when Point.equal v.position pos -> Ok t
  | Some _ ->
    let relocate (w : Valve.t) = if w.id = id then { w with position = pos } else w in
    let valves = List.map relocate t.valves in
    (* Seed clusters embed full valve records, so the moved valve's record
       must be refreshed inside its cluster too. Membership is unchanged and
       sequences are untouched, so only the distinct-position check can newly
       fail — and [Cluster.make] re-checks it. *)
    let rec rebuild = function
      | [] -> Ok []
      | (c : Cluster.t) :: rest ->
        (match
           Cluster.make ~id:c.Cluster.id ~length_matched:c.Cluster.length_matched
             (List.map relocate c.Cluster.valves)
         with
         | Error e -> err "move_valve: cluster %d: %s" c.Cluster.id e
         | Ok c' ->
           (match rebuild rest with
            | Ok cs -> Ok (c' :: cs)
            | Error _ as e -> e))
    in
    (match rebuild t.lm_clusters with
     | Error _ as e -> e
     | Ok lm_clusters ->
       (match
          create ~name:t.name ~rules:t.rules ~grid:t.grid ~valves ~lm_clusters
            ~pins:t.pins ~delta:t.delta ()
        with
        | Ok _ as ok -> ok
        | Error msg -> err "move_valve: %s" msg))

let add_obstacle t p =
  let err fmt = Format.kasprintf (fun s -> Error s) fmt in
  if not (Routing_grid.in_bounds t.grid p) then
    err "add_obstacle: %a is out of bounds" Point.pp p
  else if Routing_grid.blocked t.grid p then
    err "add_obstacle: %a is already an obstacle" Point.pp p
  else
    match List.find_opt (fun (v : Valve.t) -> Point.equal v.position p) t.valves with
    | Some v -> err "add_obstacle: valve %d stands on %a" v.id Point.pp p
    | None ->
      (* A candidate pin swallowed by the blockage simply disappears, like
         the fault overlay; [create] re-checks that enough pins remain.
         Otherwise the list is kept, for the render slots' [==] test. *)
      let pins =
        if List.exists (Point.equal p) t.pins then List.filter (fun q -> not (Point.equal q p)) t.pins
        else t.pins
      in
      (match
         create ~name:t.name ~rules:t.rules
           ~grid:(Routing_grid.with_extra_obstacles t.grid [ p ])
           ~valves:t.valves ~lm_clusters:t.lm_clusters ~pins ~delta:t.delta ()
       with
       | Ok _ as ok -> ok
       | Error msg -> err "add_obstacle: %s" msg)

let remove_obstacle t p =
  let err fmt = Format.kasprintf (fun s -> Error s) fmt in
  if not (Routing_grid.in_bounds t.grid p) then
    err "remove_obstacle: %a is out of bounds" Point.pp p
  else if Routing_grid.free t.grid p then
    err "remove_obstacle: %a is not an obstacle" Point.pp p
  else
    match
      create ~name:t.name ~rules:t.rules
        ~grid:(Routing_grid.without_obstacles t.grid [ p ])
        ~valves:t.valves ~lm_clusters:t.lm_clusters ~pins:t.pins ~delta:t.delta ()
    with
    | Ok _ as ok -> ok
    | Error msg -> err "remove_obstacle: %s" msg

(* Fault overlay for the online-repair flow: block the faulted cells in the
   static grid, retire the dead valves (stuck valves, plus any valve whose
   cell got blocked), drop pins swallowed by a blockage, and shrink the seed
   clusters to their surviving members.  The result goes back through
   [create] so every invariant of a fresh problem still holds. *)
let with_faults t ~blocked ~dead_valves =
  let module Int_set = Set.Make (Int) in
  let blocked_set = Point.Set.of_list blocked in
  let dead_set = Int_set.of_list dead_valves in
  let is_dead (v : Valve.t) =
    Int_set.mem v.id dead_set || Point.Set.mem v.position blocked_set
  in
  let valves = List.filter (fun v -> not (is_dead v)) t.valves in
  if valves = [] then Error "with_faults: no valves survive the fault set"
  else begin
    let grid =
      if blocked = [] then t.grid else Routing_grid.with_extra_obstacles t.grid blocked
    in
    let pins = List.filter (fun p -> not (Point.Set.mem p blocked_set)) t.pins in
    let alive =
      List.fold_left
        (fun s (v : Valve.t) -> Int_set.add v.id s)
        Int_set.empty valves
    in
    let lm_clusters =
      List.filter_map
        (fun (c : Cluster.t) ->
           match
             List.filter (fun (v : Valve.t) -> Int_set.mem v.id alive) c.Cluster.valves
           with
           | [] -> None
           | members ->
             (match Cluster.make ~id:c.Cluster.id ~length_matched:true members with
              | Ok c -> Some c
              | Error _ -> None))
        t.lm_clusters
    in
    match
      create ~name:t.name ~rules:t.rules ~grid ~valves ~lm_clusters ~pins ~delta:t.delta ()
    with
    | Ok _ as ok -> ok
    | Error msg -> Error ("with_faults: " ^ msg)
  end
