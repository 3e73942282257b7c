open Pacor_geom
open Pacor_grid
open Pacor_valve

type t =
  | Stuck_valve of { valve : Valve.id; stuck_open : bool }
  | Blocked_cell of Point.t
  | Leaky_segment of { a : Point.t; b : Point.t }

(* Canonical endpoint order so [Leaky_segment {a; b}] and [{a = b; b = a}]
   denote the same physical segment. *)
let norm_segment a b = if Point.compare a b <= 0 then (a, b) else (b, a)

(* Two faults collide when they occupy the same physical site, regardless
   of kind details (a valve cannot be stuck open and stuck closed at once,
   a segment cannot leak twice). *)
let same_site f g =
  match (f, g) with
  | Stuck_valve a, Stuck_valve b -> a.valve = b.valve
  | Blocked_cell a, Blocked_cell b -> Point.equal a b
  | Leaky_segment s, Leaky_segment s' ->
    let a, b = norm_segment s.a s.b and a', b' = norm_segment s'.a s'.b in
    Point.equal a a' && Point.equal b b'
  | (Stuck_valve _ | Blocked_cell _ | Leaky_segment _), _ -> false

let pp ppf = function
  | Stuck_valve { valve; stuck_open } ->
    Format.fprintf ppf "valve %d stuck %s" valve (if stuck_open then "open" else "closed")
  | Blocked_cell p -> Format.fprintf ppf "blocked cell %a" Point.pp p
  | Leaky_segment { a; b } -> Format.fprintf ppf "leaky segment %a-%a" Point.pp a Point.pp b

let blocked_cells faults =
  let set =
    List.fold_left
      (fun acc -> function
         | Stuck_valve _ -> acc
         | Blocked_cell p -> Point.Set.add p acc
         | Leaky_segment { a; b } -> Point.Set.add a (Point.Set.add b acc))
      Point.Set.empty faults
  in
  Point.Set.elements set

let stuck_valves faults =
  List.sort_uniq Int.compare
    (List.filter_map
       (function Stuck_valve { valve; _ } -> Some valve | Blocked_cell _ | Leaky_segment _ -> None)
       faults)

let apply problem faults =
  Pacor.Problem.with_faults problem ~blocked:(blocked_cells faults)
    ~dead_valves:(stuck_valves faults)

(* Injection site pools, all derived deterministically from the solution:
   - valves: every valve of the problem, in declaration order;
   - cells: every cell of a routed channel (internal claims and escape
     paths) that is neither a valve cell nor a candidate pin, first-seen
     order over clusters;
   - segments: consecutive cell pairs of routed paths whose endpoints are
     both plain channel cells.
   Valve cells and pins are excluded so a blocked cell or leak never
   aliases a stuck valve or silently deletes pin capacity — those are
   separate fault kinds / separate experiments. *)
let site_pools (sol : Pacor.Solution.t) =
  let problem = sol.Pacor.Solution.problem in
  let valves = Array.of_list problem.Pacor.Problem.valves in
  let special =
    List.fold_left
      (fun acc (v : Valve.t) -> Point.Set.add v.position acc)
      (Point.Set.of_list problem.Pacor.Problem.pins)
      problem.Pacor.Problem.valves
  in
  let plain p = not (Point.Set.mem p special) in
  let cells = ref [] and seen = ref Point.Set.empty in
  let add_cell p =
    if plain p && not (Point.Set.mem p !seen) then begin
      seen := Point.Set.add p !seen;
      cells := p :: !cells
    end
  in
  let segments = ref [] and seen_seg = ref [] in
  let add_segment a b =
    if plain a && plain b then begin
      let seg = norm_segment a b in
      if not (List.mem seg !seen_seg) then begin
        seen_seg := seg :: !seen_seg;
        segments := seg :: !segments
      end
    end
  in
  let add_path path =
    let pts = Path.points path in
    List.iter add_cell pts;
    let rec pairs = function
      | a :: (b :: _ as rest) ->
        add_segment a b;
        pairs rest
      | [] | [ _ ] -> ()
    in
    pairs pts
  in
  List.iter
    (fun (c : Pacor.Solution.routed_cluster) ->
       List.iter add_path c.routed.Pacor.Routed.paths;
       Point.Set.iter add_cell c.routed.Pacor.Routed.claimed;
       match c.escape with
       | None -> ()
       | Some e -> add_path e.Pacor_flow.Escape.path)
    sol.Pacor.Solution.clusters;
  (valves, Array.of_list (List.rev !cells), Array.of_list (List.rev !segments))

let inject_avoiding ~rng ~rate ~avoid (sol : Pacor.Solution.t) =
  if rate <= 0. then []
  else begin
    let valves, cells, segments = site_pools sol in
    let n = max 1 (int_of_float (Float.round (rate *. float_of_int (Array.length valves)))) in
    let taken = ref avoid in
    let faults = ref [] in
    let count = ref 0 in
    let attempts = ref 0 in
    (* Site collisions are re-rolled; the attempt cap only matters when the
       pools are nearly exhausted (tiny chip, huge rate) and turns that
       into a short fault list instead of a spin. *)
    let max_attempts = (8 * n) + 16 in
    while !count < n && !attempts < max_attempts do
      incr attempts;
      let stuck () =
        let v = Pacor_designs.Rng.pick_array rng valves in
        Stuck_valve { valve = v.Valve.id; stuck_open = Pacor_designs.Rng.bool rng }
      in
      let fault =
        match Pacor_designs.Rng.int rng ~bound:4 with
        | 2 when Array.length cells > 0 ->
          Blocked_cell (Pacor_designs.Rng.pick_array rng cells)
        | 3 when Array.length segments > 0 ->
          let a, b = Pacor_designs.Rng.pick_array rng segments in
          Leaky_segment { a; b }
        | _ -> stuck ()
      in
      if not (List.exists (same_site fault) !taken) then begin
        taken := fault :: !taken;
        faults := fault :: !faults;
        incr count
      end
    done;
    List.rev !faults
  end

let inject ~rng ~rate sol = inject_avoiding ~rng ~rate ~avoid:[] sol

type spec = {
  rate : float;
  seed : int64;
  explicit : t list;
}

let parse_point s =
  match String.split_on_char ':' s with
  | [ x; y ] ->
    (match (int_of_string_opt x, int_of_string_opt y) with
     | Some x, Some y -> Ok (Point.make x y)
     | _ -> Error (Printf.sprintf "bad coordinate %S (want X:Y)" s))
  | _ -> Error (Printf.sprintf "bad coordinate %S (want X:Y)" s)

let parse_token tok =
  match String.index_opt tok '=' with
  | None -> Error (Printf.sprintf "bad fault directive %S (want key=value)" tok)
  | Some i ->
    let key = String.sub tok 0 i in
    let value = String.sub tok (i + 1) (String.length tok - i - 1) in
    (match key with
     | "rate" ->
       (match float_of_string_opt value with
        | Some r when r >= 0. -> Ok (`Rate r)
        | _ -> Error (Printf.sprintf "bad rate %S" value))
     | "seed" ->
       (match Int64.of_string_opt value with
        | Some s -> Ok (`Seed s)
        | None -> Error (Printf.sprintf "bad seed %S" value))
     | "stuck" | "stuck-closed" ->
       (match int_of_string_opt value with
        | Some id when id >= 0 ->
          Ok (`Fault (Stuck_valve { valve = id; stuck_open = false }))
        | _ -> Error (Printf.sprintf "bad valve id %S" value))
     | "stuck-open" ->
       (match int_of_string_opt value with
        | Some id when id >= 0 ->
          Ok (`Fault (Stuck_valve { valve = id; stuck_open = true }))
        | _ -> Error (Printf.sprintf "bad valve id %S" value))
     | "cell" ->
       (match parse_point value with
        | Ok p -> Ok (`Fault (Blocked_cell p))
        | Error e -> Error e)
     | "leak" ->
       (match String.split_on_char '-' value with
        | [ a; b ] ->
          (match (parse_point a, parse_point b) with
           | Ok a, Ok b ->
             if Point.manhattan a b = 1 then Ok (`Fault (Leaky_segment { a; b }))
             else Error (Printf.sprintf "leak endpoints %S are not adjacent" value)
           | Error e, _ | _, Error e -> Error e)
        | _ -> Error (Printf.sprintf "bad leak %S (want X:Y-X:Y)" value))
     | _ -> Error (Printf.sprintf "unknown fault directive %S" key))

let parse_spec s =
  let tokens =
    List.filter (fun t -> t <> "") (List.map String.trim (String.split_on_char ',' s))
  in
  if tokens = [] then Error "empty fault spec"
  else
    List.fold_left
      (fun acc tok ->
         match acc with
         | Error _ as e -> e
         | Ok spec ->
           (match parse_token tok with
            | Ok (`Rate rate) -> Ok { spec with rate }
            | Ok (`Seed seed) -> Ok { spec with seed }
            | Ok (`Fault f) -> Ok { spec with explicit = spec.explicit @ [ f ] }
            | Error e -> Error e))
      (Ok { rate = 0.; seed = 1L; explicit = [] })
      tokens

let realise spec sol =
  let rng = Pacor_designs.Rng.create ~seed:spec.seed in
  spec.explicit @ inject_avoiding ~rng ~rate:spec.rate ~avoid:spec.explicit sol
