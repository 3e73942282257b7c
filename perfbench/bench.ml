(* The repository's benchmark: three closed-loop workloads, one client each,
   driven in-process. See README.md beside this file for why each workload
   exists and which layers it loads.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   A run sets its workload up several times (the median is [setup_s]),
   runs one untimed warm-up op on the last set-up, compacts the heap, then
   runs a fixed number of ops derived from [--seconds] and the workload's
   nominal op cost. The op sequence is a function of the seed alone. Every
   op's output is checked outside its timing, and ops on the same input
   must give the same outcome. The last stdout line is the JSON result;
   with [--trace 1] it carries the per-layer metrics instead of the
   end-to-end ones, and a Chrome trace is written under [out_dir]. *)

module J = Pacor_serve.Json
module Point = Pacor_geom.Point
module Grid = Pacor_grid.Routing_grid

let out_dir = Filename.concat "perfbench" "_out"

(* ---------- checks and quality ---------- *)

type quality = { completion : float; matched : float; length : float }

type check = {
  failures : string list;
  quality : quality list;  (** one per checked solution *)
  same : (string * string) option;
      (** [(input, outcome)]: every op of a run on the same input must
          report the same deterministic outcome (quality, search pops,
          ladder counters) *)
}

let passed ?same q = { failures = []; quality = q; same }
let failed msg = { failures = [ msg ]; quality = []; same = None }

let quality_sig q = Printf.sprintf "completion=%h matched=%h length=%h" q.completion q.matched q.length

(* Deterministic outcome of an engine run: quality and search pops by stage. *)
let solution_sig (sol : Pacor.Solution.t) q =
  quality_sig q ^ " pops="
  ^ String.concat ","
      (List.map
         (fun (stage, s) -> Printf.sprintf "%s:%d" stage s.Pacor_route.Search_stats.pops)
         sol.Pacor.Solution.stage_search)

let matched_frac ~matched (p : Pacor.Problem.t) =
  float_of_int matched /. float_of_int (max 1 (List.length p.Pacor.Problem.lm_clusters))

let solution_quality (sol : Pacor.Solution.t) =
  let s = Pacor.Solution.stats sol in
  {
    completion = s.Pacor.Solution.completion;
    matched = matched_frac ~matched:s.Pacor.Solution.matched_clusters sol.Pacor.Solution.problem;
    length = float_of_int s.Pacor.Solution.total_length;
  }

let first n l = List.filteri (fun i _ -> i < n) l

let check_solution ~what ~input sol =
  match Pacor.Solution.validate sol with
  | Ok () ->
    let q = solution_quality sol in
    passed ~same:(input, solution_sig sol q) [ q ]
  | Error msgs -> failed (what ^ ": invalid solution: " ^ String.concat "; " (first 3 msgs))

let parse_problem ~what text =
  match Pacor.Problem_io.of_string text with
  | Ok p -> p
  | Error e -> failwith (what ^ ": " ^ e)

(* ---------- workloads ---------- *)

type run = {
  ops : int;
  trace_block : int;
      (** a traced run traces blocks of this many ops and leaves every
          other block untraced, to measure the tracing overhead *)
  warmup : unit -> check list;  (** run once, after the last set-up *)
  op : int -> unit -> check;
      (** [op i] performs op [i] (timed); the closure it returns checks the
          op's output (untimed) *)
  probes : unit -> (unit -> unit) list;
      (** traced runs only: prepares, untraced, the probes to run after the
          timed ops — direct calls into single layers on the ops' inputs,
          about one per distinct input *)
  layer_metrics : unit -> (string * float) list;
  teardown : unit -> unit;
}

let ops_for ~seconds ~nominal_s ~min_ops =
  max min_ops (int_of_float (Float.round (float_of_int seconds /. nominal_s)))

let stage_layer = function
  | "clustering" -> "valve"
  | "lm-routing" | "plain-routing" -> "route"
  | "escape" -> "flow"
  | _ -> "core"

(* The engine's per-stage fields as reported children, laid end to end
   from [ts] in flow order. *)
let report_stages (sol : Pacor.Solution.t) ~ts =
  let pops = sol.Pacor.Solution.stage_search in
  ignore
    (List.fold_left
       (fun (t, pops) (stage, secs) ->
         let p, rest =
           match pops with
           | (_, s) :: rest -> (s.Pacor_route.Search_stats.pops, rest)
           | [] -> (0, [])
         in
         Span.reported ~name:stage ~layer:(stage_layer stage) ~ts:t ~dur:secs ~pops:p (fun () -> ());
         (t +. secs, rest))
       (ts, pops) sol.Pacor.Solution.stage_seconds)

(* Direct calls to DME candidate generation and tree selection on an
   instance's length-matched clusters, as the lm-routing stage makes them. *)
let probe_dme_select (p : Pacor.Problem.t) =
  let config = Pacor.Config.default in
  let grid = p.Pacor.Problem.grid in
  let valve_cells =
    Point.Set.of_list (List.map (fun (v : Pacor_valve.Valve.t) -> v.position) p.Pacor.Problem.valves)
  in
  let static = Grid.obstacles grid in
  let usable q = Pacor_grid.Obstacle_map.free static q && not (Point.Set.mem q valve_cells) in
  let cands =
    Span.measure ~name:"Cluster_route.candidates_for" ~layer:"dme" (fun () ->
      List.map (Pacor.Cluster_route.candidates_for ~config ~grid ~usable) p.Pacor.Problem.lm_clusters)
  in
  let sel = { Pacor_select.Tree_select.lambda = config.Pacor.Config.lambda; solver = config.Pacor.Config.solver } in
  ignore
    (Span.measure ~name:"Tree_select.select" ~layer:"select" (fun () ->
       Pacor_select.Tree_select.select ~config:sel (List.filter (fun c -> c <> []) cands)))

let probe_parse text =
  ignore (Span.measure ~name:"Problem_io.of_string" ~layer:"core" (fun () -> Pacor.Problem_io.of_string text))

let probe_validate sol =
  ignore (Span.measure ~name:"Solution.validate" ~layer:"core" (fun () -> Pacor.Solution.validate sol))

(* --- hier-scaled: Scaled3 under the default config (hier auto engages) --- *)

type hier_op = { tier : string; clips : int; fallbacks : int; bidir : int }

let hier_scaled ~seed:_ ~seconds =
  (* The seed does not alter the design: Scaled3's cost changes up to 2x
     between its eight mirror images, so a seeded variant would turn
     seed-to-seed spread into the metric. *)
  let text = Pacor.Problem_io.to_string (Pacor_designs.Scaled.load_exn 3) in
  let problem = parse_problem ~what:"Scaled3" text in
  let workspace = Pacor_route.Workspace.create () in
  Pacor_route.Workspace.prepare workspace ~cells:(Grid.cells problem.Pacor.Problem.grid);
  let log = ref [] in
  let children r ~ts ~dur =
    match r with
    | Error _ -> ()
    | Ok (rep : Pacor.Engine.report) ->
      let sol = rep.Pacor.Engine.solution in
      let extra = Float.max 0. (dur -. sol.Pacor.Solution.runtime_s) in
      Span.reported ~name:"hier-extra" ~layer:"core" ~ts ~dur:extra (fun () -> ());
      report_stages sol ~ts:(ts +. extra)
  in
  let route i =
    match
      Span.measure ~name:"Engine.run_report" ~layer:"core" ~children (fun () ->
        Pacor.Engine.run_report ~workspace problem)
    with
    | Error e -> fun () -> failed (Printf.sprintf "op %d: engine error in %s: %s" i e.Pacor.Engine.stage e.message)
    | Ok rep ->
      let sol = rep.Pacor.Engine.solution in
      let verdict = Span.measure ~name:"Solution.validate" ~layer:"core" (fun () -> Pacor.Solution.validate sol) in
      let o =
        {
          tier = Pacor.Engine.tier_name rep.Pacor.Engine.tier;
          clips = rep.Pacor.Engine.clips;
          fallbacks = rep.Pacor.Engine.fallbacks;
          bidir = rep.Pacor.Engine.bidir;
        }
      in
      if i >= 0 then log := o :: !log;
      fun () ->
        match verdict with
        | Ok () ->
          let q = solution_quality sol in
          let ladder = Printf.sprintf " tier=%s clips=%d fallbacks=%d bidir=%d" o.tier o.clips o.fallbacks o.bidir in
          passed ~same:("Scaled3", solution_sig sol q ^ ladder) [ q ]
        | Error msgs -> failed (Printf.sprintf "op %d: invalid solution: %s" i (String.concat "; " (first 3 msgs)))
  in
  let layer_metrics () =
    let ops = List.rev !log in
    let n = float_of_int (max 1 (List.length ops)) in
    let mean f = List.fold_left (fun a o -> a +. float_of_int (f o)) 0. ops /. n in
    let race = List.length (List.filter (fun o -> o.tier = "race-flat" || o.tier = "race-won") ops) in
    Printf.printf "hier ladder, per op (tier 1 needs clips = fallbacks = bidir = 0):\n";
    List.iteri
      (fun i o ->
        let blockers =
          List.filter_map
            (fun (name, v) -> if v > 0 then Some name else None)
            [ ("clips", o.clips); ("fallbacks", o.fallbacks); ("bidir", o.bidir) ]
        in
        Printf.printf "  op %d: tier %-12s clips=%d fallbacks=%d bidir=%d tier-1 blocked by: %s\n" i o.tier
          o.clips o.fallbacks o.bidir
          (if blockers = [] then "-" else String.concat "," blockers))
      ops;
    let tiers = List.sort_uniq String.compare (List.map (fun o -> o.tier) ops) in
    Printf.printf "  tier histogram: %s\n"
      (String.concat ", "
         (List.map
            (fun t -> Printf.sprintf "%s=%d" t (List.length (List.filter (fun o -> o.tier = t) ops)))
            tiers));
    Printf.printf
      "  tier 2's blocking reason is not observable here: a raced op returns the flat solution.\n";
    [
      ("hier.race_frac", float_of_int race /. n);
      ("hier.clips", mean (fun o -> o.clips));
      ("hier.fallbacks", mean (fun o -> o.fallbacks));
      ("hier.bidir", mean (fun o -> o.bidir));
    ]
  in
  {
    ops = ops_for ~seconds ~nominal_s:3.2 ~min_ops:3;
    trace_block = 1;
    warmup = (fun () -> [ route (-1) () ]);
    op = route;
    probes =
      (fun () ->
        List.init 3 (fun _ () ->
          probe_parse text;
          probe_dme_select problem));
    layer_metrics;
    teardown = ignore;
  }

(* --- lattice-batch: FPVA lattices through a warm one-worker batch pool --- *)

let lattice_variants = 8

let lattice_spec ring =
  {
    Pacor_designs.Fpva.name = Printf.sprintf "fpva14-ring%d" ring;
    rows = 14;
    cols = 14;
    pitch = 5;
    group = 7;
    seed = Int64.of_int ring;
    delta = 2;
  }

let lattice_batch ~seed ~seconds =
  (* The seed picks the pin-ring rotations; lattice cost is flat across
     rotations, so they vary the input without varying the work. *)
  let rng = Random.State.make [| seed; 0x1a77 |] in
  let rings = Array.init lattice_variants (fun _ -> Random.State.int rng 1_000_000) in
  let texts =
    Array.map (fun r -> Pacor.Problem_io.to_string (Pacor_designs.Fpva.generate_exn (lattice_spec r))) rings
  in
  let problems = Array.mapi (fun i t -> parse_problem ~what:(Printf.sprintf "lattice %d" i) t) texts in
  let jobs =
    Array.mapi (fun i p -> Pacor_par.Batch.job ~name:(Printf.sprintf "ring%d" rings.(i)) p) problems
  in
  let pool = Pacor_par.Pool.create ~jobs:1 () in
  let last = Array.make lattice_variants None in
  let children (s : Pacor_par.Batch.summary) ~ts ~dur:_ =
    match s.Pacor_par.Batch.items with
    | [ { Pacor_par.Batch.solution = Ok sol; _ } ] ->
      Span.reported ~name:"Engine.run" ~layer:"core" ~ts ~dur:sol.Pacor.Solution.runtime_s (fun () ->
        report_stages sol ~ts)
    | _ -> ()
  in
  let op i =
    let k = (i + lattice_variants) mod lattice_variants in
    let s =
      Span.measure ~name:"Batch.run_on" ~layer:"par" ~children (fun () ->
        Pacor_par.Batch.run_on pool [ jobs.(k) ])
    in
    fun () ->
      match s.Pacor_par.Batch.items with
      | [ { Pacor_par.Batch.solution = Ok sol; _ } ] ->
        last.(k) <- Some sol;
        let name = jobs.(k).Pacor_par.Batch.name in
        check_solution ~what:(Printf.sprintf "op %d (%s)" i name) ~input:name sol
      | [ { Pacor_par.Batch.solution = Error e; _ } ] ->
        failed (Printf.sprintf "op %d: %s" i (Pacor_par.Batch.error_to_string e))
      | items -> failed (Printf.sprintf "op %d: %d items for one job" i (List.length items))
  in
  {
    ops = ops_for ~seconds ~nominal_s:0.17 ~min_ops:20;
    trace_block = lattice_variants;
    warmup = (fun () -> [ op (-1) () ]);
    op;
    probes =
      (fun () ->
        List.init lattice_variants (fun k () ->
          probe_parse texts.(k);
          probe_dme_select problems.(k);
          Option.iter probe_validate last.(k)));
    layer_metrics = (fun () -> []);
    teardown = (fun () -> Pacor_par.Pool.shutdown pool);
  }

(* --- serve-edit: an in-process client editing Chip2 sessions --- *)

type edit =
  | Move of { valve : int; x : int; y : int }
  | Add of int * int
  | Remove of int * int
  | Delta of int

let edit_fields = function
  | Move { valve; x; y } ->
    [ ("op", J.String "move_valve"); ("valve", J.Int valve); ("x", J.Int x); ("y", J.Int y) ]
  | Add (x, y) -> [ ("op", J.String "add_obstacle"); ("x", J.Int x); ("y", J.Int y) ]
  | Remove (x, y) -> [ ("op", J.String "remove_obstacle"); ("x", J.Int x); ("y", J.Int y) ]
  | Delta d -> [ ("op", J.String "set_delta"); ("delta", J.Int d) ]

let apply_edit p = function
  | Move { valve; x; y } -> Pacor.Problem.move_valve p valve (Point.make x y)
  | Add (x, y) -> Pacor.Problem.add_obstacle p (Point.make x y)
  | Remove (x, y) -> Pacor.Problem.remove_obstacle p (Point.make x y)
  | Delta d -> Pacor.Problem.with_delta p d

let request ~id fields = J.to_string (J.Obj (("id", J.Int id) :: fields))

(* One cycle: do an edit, read the session, undo the edit, re-send the
   session's unchanged base problem. The cached route re-binds the base
   solution, so every cycle starts from the same state and its cost does
   not depend on what ran before it. *)
type cycle = { id : int; session : int; edit : edit; undo : edit }

type step = Do | Get | Undo | Route

let step_of i = match i mod 4 with 0 -> Do | 1 -> Get | 2 -> Undo | _ -> Route
let step_label = function Do | Undo -> "edit" | Get -> "get" | Route -> "route_hit"

let pool_seed = 0x5e7e
let serve_sessions = 2
let warm_cycles = 16

let chip2_spec k =
  match Pacor_designs.Table1.spec_of "Chip2" with
  | None -> failwith "Chip2 spec missing"
  | Some s ->
    if k = 0 then s
    else { s with Pacor_designs.Synthetic.name = Printf.sprintf "Chip2-v%d" k; seed = Int64.add s.seed (Int64.of_int k) }

(* Cycle [j] edits session [(j / 4) mod serve_sessions]; its edit kind
   cycles through the four delta kinds uniformly, as the repository's
   serve trace does. *)
let gen_cycle (bases : Pacor.Problem.t array) (blocked : Point.t array array) j =
  let rng = Random.State.make [| pool_seed; j |] in
  let session = j / 4 mod serve_sessions in
  let p = bases.(session) in
  let grid = p.Pacor.Problem.grid in
  let valves = Array.of_list p.Pacor.Problem.valves in
  let taken =
    Point.Set.of_list
      (p.Pacor.Problem.pins @ List.map (fun (v : Pacor_valve.Valve.t) -> v.position) p.Pacor.Problem.valves)
  in
  let open_cell q = Grid.free grid q && (not (Grid.on_boundary grid q)) && not (Point.Set.mem q taken) in
  let rec near ~lo ~hi ~ok tries =
    let v = valves.(Random.State.int rng (Array.length valves)) in
    let d () = Random.State.int rng ((2 * hi) + 1) - hi in
    let dx = d () and dy = d () in
    let q = Point.make (v.position.x + dx) (v.position.y + dy) in
    if max (abs dx) (abs dy) >= lo && Grid.in_bounds grid q && open_cell q && ok q then (v, q)
    else if tries = 0 then failwith "serve-edit: no cell for an edit"
    else near ~lo ~hi ~ok (tries - 1)
  in
  let edit, undo =
    match j mod 4 with
    | 0 ->
      let v, q = near ~lo:1 ~hi:4 ~ok:(fun _ -> true) 1000 in
      ( Move { valve = v.id; x = q.x; y = q.y },
        Move { valve = v.id; x = v.position.x; y = v.position.y } )
    | 1 ->
      (* Not beside a valve or pin, so a single cell never walls one in. *)
      let clear q = List.for_all (fun n -> not (Point.Set.mem n taken)) (Point.neighbours4 q) in
      let _, q = near ~lo:2 ~hi:3 ~ok:clear 1000 in
      (Add (q.x, q.y), Remove (q.x, q.y))
    | 2 ->
      let cells = blocked.(session) in
      let q = cells.(Random.State.int rng (Array.length cells)) in
      (Remove (q.x, q.y), Add (q.x, q.y))
    | _ ->
      let d = [| 0; 2; 3 |].(Random.State.int rng 3) in
      (Delta d, Delta p.Pacor.Problem.delta)
  in
  { id = j; session; edit; undo }

let member_path path j =
  List.fold_left (fun acc k -> Option.bind acc (J.member k)) (Some j) path

let get_bool path j = Option.bind (member_path path j) J.bool_opt
let get_int path j = Option.bind (member_path path j) J.int_opt
let get_float path j = Option.bind (member_path path j) J.float_opt
let get_string path j = Option.bind (member_path path j) J.string_opt

let response_quality j (p : Pacor.Problem.t) =
  match
    ( get_float [ "result"; "completion" ] j,
      get_int [ "result"; "matched_clusters" ] j,
      get_int [ "result"; "total_length" ] j )
  with
  | Some completion, Some matched, Some length ->
    Some { completion; matched = matched_frac ~matched p; length = float_of_int length }
  | _ -> None

type serve_log = { mutable deltas : int; mutable pops : int }

let serve_edit ~seed ~seconds =
  let texts =
    Array.init serve_sessions (fun k ->
      Pacor.Problem_io.to_string (Pacor_designs.Synthetic.generate_exn (chip2_spec k)))
  in
  let bases = Array.mapi (fun k t -> parse_problem ~what:(Printf.sprintf "session %d" k) t) texts in
  let base_fp = Array.map Pacor.Problem_io.fingerprint bases in
  let blocked =
    Array.map
      (fun (p : Pacor.Problem.t) ->
        let acc = ref [] in
        Pacor_grid.Obstacle_map.iter_blocked (Grid.obstacles p.Pacor.Problem.grid) (fun q -> acc := q :: !acc);
        Array.of_list (List.sort Point.compare !acc))
      bases
  in
  let server = Pacor_serve.Server.create () in
  let workspace = Pacor_serve.Server.take_workspace server in
  let session k = J.String (Printf.sprintf "s%d" k) in
  let route_req k = request ~id:0 [ ("op", J.String "route"); ("problem", J.String texts.(k)); ("session", session k) ] in
  let base_q =
    Array.mapi
      (fun k _ ->
        let line = (Pacor_serve.Server.handle ~workspace server (route_req k)).Pacor_serve.Server.line in
        match J.of_string line with
        | Ok j when get_bool [ "ok" ] j = Some true && get_bool [ "result"; "valid" ] j = Some true -> (
          match response_quality j bases.(k) with
          | Some q -> q
          | None -> failwith ("serve-edit: initial route of session " ^ string_of_int k ^ " lacks quality fields"))
        | _ -> failwith ("serve-edit: initial route of session " ^ string_of_int k ^ " failed: " ^ line))
      texts
  in
  (* Each distinct cycle runs twice, so the edits' outcomes can be checked
     for exact repeats within one run. The seed orders a fixed pool of
     cycles. Edit costs are heavy-tailed (a scratch fallback costs ~20x an
     incremental edit), so drawing the edits from the seed would make
     seed-to-seed spread swamp every bound. *)
  let distinct = (ops_for ~seconds ~nominal_s:0.043 ~min_ops:25 + 1) / 2 in
  let pool = Array.init (2 * distinct) (fun i -> gen_cycle bases blocked (i / 2)) in
  let rng = Random.State.make [| seed; 0x5e7e |] in
  for i = Array.length pool - 1 downto 1 do
    let k = Random.State.int rng (i + 1) in
    let t = pool.(i) in
    pool.(i) <- pool.(k);
    pool.(k) <- t
  done;
  let mirrors = Array.copy bases in
  (* Quality of each session's solution as of its last answered write. *)
  let state_q = Array.copy base_q in
  let log = { deltas = 0; pops = 0 } in
  let stats0 = ref J.Null in
  let counting = ref false in
  let step_request ~id (c : cycle) = function
    | Do -> request ~id (("session", session c.session) :: edit_fields c.edit)
    | Undo -> request ~id (("session", session c.session) :: edit_fields c.undo)
    | Get -> request ~id [ ("op", J.String "get"); ("session", session c.session) ]
    | Route -> route_req c.session
  in
  let run_step i (c : cycle) step =
    let line = step_request ~id:i c step in
    let out =
      Span.measure ~name:("Server.handle:" ^ step_label step) ~layer:"serve" (fun () ->
        Pacor_serve.Server.handle ~workspace server line)
    in
    fun () ->
      let s = c.session in
      let what = Printf.sprintf "op %d (%s s%d)" i (step_label step) s in
      let mirror =
        match step with
        | Do -> apply_edit mirrors.(s) c.edit
        | Undo -> apply_edit mirrors.(s) c.undo
        | Get -> Ok mirrors.(s)
        | Route -> Ok bases.(s)
      in
      match (mirror, J.of_string out.Pacor_serve.Server.line) with
      | Error e, _ -> failed (what ^ ": client mirror refused the edit: " ^ e)
      | _, Error e -> failed (what ^ ": unparseable response: " ^ e)
      | Ok m, Ok j -> (
        mirrors.(s) <- m;
        let expect = if step = Route then base_fp.(s) else Pacor.Problem_io.fingerprint m in
        if get_bool [ "ok" ] j <> Some true then failed (what ^ ": " ^ out.Pacor_serve.Server.line)
        else if get_bool [ "result"; "valid" ] j <> Some true then failed (what ^ ": valid is not true")
        else if get_string [ "result"; "fingerprint" ] j <> Some expect then
          failed (what ^ ": problem fingerprint differs from the client mirror")
        else
          match (response_quality j m, step) with
          | None, _ -> failed (what ^ ": result lacks quality fields")
          | Some q, Get when q <> state_q.(s) -> failed (what ^ ": quality differs from the session's last write")
          | Some q, Route when q <> base_q.(s) ->
            failed (what ^ ": cached route's quality differs from the initial route's")
          | Some q, (Get | Route) ->
            state_q.(s) <- q;
            passed [ q ]
          | Some q, (Do | Undo) ->
            let expansions = Option.value ~default:0 (get_int [ "result"; "expansions" ] j) in
            if !counting then begin
              log.deltas <- log.deltas + 1;
              log.pops <- log.pops + expansions
            end;
            state_q.(s) <- q;
            let outcome =
              Printf.sprintf "%s incremental=%s expansions=%d" (quality_sig q)
                (match get_bool [ "result"; "incremental" ] j with Some b -> string_of_bool b | None -> "?")
                expansions
            in
            passed ~same:(Printf.sprintf "cycle %d %s" c.id (if step = Do then "edit" else "undo"), outcome) [ q ])
  in
  (* The warm-up runs the pool's first [warm_cycles] cycles, four of each
     edit kind, in order. The major heap grows with the bursts of scratch
     fallbacks and is not returned, so without them the run's peak RSS
     depended on how early the seed's order put the heavy edits (about 200
     or 245 MB); with them the heap reaches its working size first, as a
     long-running daemon's does. *)
  let warmup () =
    let checks =
      List.concat
        (List.init warm_cycles (fun j ->
           let c = gen_cycle bases blocked j in
           List.mapi (fun k step -> run_step (-1 - (4 * j) - k) c step ()) [ Do; Get; Undo; Route ]))
    in
    stats0 := Pacor_serve.Server.stats_result server;
    counting := true;
    checks
  in
  let layer_metrics () =
    let stats1 = Pacor_serve.Server.stats_result server in
    let d path = float_of_int (Option.value ~default:0 (get_int path stats1) - Option.value ~default:0 (get_int path !stats0)) in
    let deltas = d [ "delta_requests" ] and incremental = d [ "incremental_served" ] in
    let hits = d [ "cache"; "hits" ] and misses = d [ "cache"; "misses" ] in
    let frac a b = if b > 0. then a /. b else 0. in
    Printf.printf "serve: %.0f deltas, %.0f served incrementally, %.0f route cache hits of %.0f lookups\n"
      deltas incremental hits (hits +. misses);
    [
      ("serve.deltas", deltas);
      ("serve.incremental_frac", frac incremental deltas);
      ("serve.fallback_frac", frac (deltas -. incremental) deltas);
      ("serve.cache_hit_frac", frac hits (hits +. misses));
      ("fault.delta_pops", frac (float_of_int log.pops) (float_of_int log.deltas));
    ]
  in
  {
    ops = 4 * Array.length pool;
    trace_block = 4;
    warmup;
    op = (fun i -> run_step i pool.(i / 4) (step_of i));
    probes =
      (fun () ->
        let solutions = Array.map (fun p -> Result.get_ok (Pacor.Engine.run p)) bases in
        List.init (4 * serve_sessions) (fun i () ->
          let s = i mod serve_sessions in
          probe_parse texts.(s);
          probe_dme_select bases.(s);
          probe_validate solutions.(s)));
    layer_metrics;
    teardown = (fun () -> Pacor_serve.Server.return_workspace server workspace);
  }

let workloads =
  [ ("hier-scaled", hier_scaled); ("lattice-batch", lattice_batch); ("serve-edit", serve_edit) ]

(* ---------- metrics ---------- *)

let percentile sorted p =
  let n = Array.length sorted in
  sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line -> (
      match Scanf.sscanf_opt line "VmHWM: %d kB" (fun kb -> kb) with
      | Some kb -> float_of_int kb /. 1024.
      | None -> scan ())
    | exception End_of_file -> 0.
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

let end_to_end_names =
  [
    ("setup_s", "s");
    ("ops_per_s", "1/s");
    ("op_p50_ms", "ms");
    ("op_p90_ms", "ms");
    ("cpu_ms_per_op", "ms");
    ("peak_rss_mb", "MB");
    ("ok_frac", "frac");
    ("completion", "frac");
    ("matched_frac", "frac");
    ("total_length", "cells");
  ]

(* Per-layer metrics: (name, unit). Every traced run reports all of them;
   one a workload never exercises reads 0. *)
let per_layer_names =
  [
    ("flow.escape_ms", "ms");
    ("flow.escape_pops", "count");
    ("core.lm_routing_ms", "ms");
    ("route.lm_pops", "count");
    ("dme.candidates_ms", "ms");
    ("select.select_ms", "ms");
    ("core.hier_extra_ms", "ms");
    ("hier.race_frac", "frac");
    ("hier.clips", "count");
    ("hier.fallbacks", "count");
    ("hier.bidir", "count");
    ("core.detour_ms", "ms");
    ("core.detour_pops", "count");
    ("core.rematch_ms", "ms");
    ("core.rematch_pops", "count");
    ("valve.clustering_ms", "ms");
    ("route.plain_ms", "ms");
    ("route.plain_pops", "count");
    ("core.parse_ms", "ms");
    ("core.validate_ms", "ms");
    ("serve.handle_ms.edit", "ms");
    ("serve.handle_ms.get", "ms");
    ("serve.handle_ms.route_hit", "ms");
    ("serve.incremental_frac", "frac");
    ("serve.cache_hit_frac", "frac");
    ("serve.fallback_frac", "frac");
    ("serve.deltas", "count");
    ("fault.delta_pops", "count");
    ("par.dispatch_ms", "ms");
    ("gc.minor_mw_per_op", "Mwords");
    ("gc.major_mw_per_op", "Mwords");
    ("gc.major_gcs_per_op", "count");
    ("core.minor_kw_per_op", "kwords");
    ("par.minor_kw_per_op", "kwords");
    ("serve.minor_kw_per_op", "kwords");
    ("dme.minor_kw_per_call", "kwords");
    ("select.minor_kw_per_call", "kwords");
    ("speed.factor", "x");
    ("raw.ops_per_s", "1/s");
    ("raw.op_p50_ms", "ms");
  ]

let span_metrics ~ops =
  let n = float_of_int (max 1 ops) in
  let per_op f l = Span.sum f l /. n in
  let ms_per_op name = per_op (fun r -> r.Span.dur *. 1e3) (Span.named name) in
  let pops_per_op name = per_op (fun r -> float_of_int r.Span.pops) (Span.named name) in
  let per_call f name =
    let l = Span.named name in
    if l = [] then 0. else Span.sum f l /. float_of_int (List.length l)
  in
  let ms_per_call = per_call (fun r -> r.Span.dur *. 1e3) in
  let kw_per_call = per_call (fun r -> r.Span.minor_words /. 1e3) in
  let kw_per_op layer =
    per_op (fun r -> r.Span.self_minor_words /. 1e3)
      (List.filter (fun r -> r.Span.layer = layer && r.Span.measured) (Span.in_root "op"))
  in
  let roots = Span.named "op" in
  [
    ("flow.escape_ms", ms_per_op "escape");
    ("flow.escape_pops", pops_per_op "escape");
    ("core.lm_routing_ms", ms_per_op "lm-routing");
    ("route.lm_pops", pops_per_op "lm-routing");
    ("dme.candidates_ms", ms_per_call "Cluster_route.candidates_for");
    ("select.select_ms", ms_per_call "Tree_select.select");
    ("core.hier_extra_ms", ms_per_op "hier-extra");
    ("core.detour_ms", ms_per_op "detour");
    ("core.detour_pops", pops_per_op "detour");
    ("core.rematch_ms", ms_per_op "rematch");
    ("core.rematch_pops", pops_per_op "rematch");
    ("valve.clustering_ms", ms_per_op "clustering");
    ("route.plain_ms", ms_per_op "plain-routing");
    ("route.plain_pops", pops_per_op "plain-routing");
    ("core.parse_ms", ms_per_call "Problem_io.of_string");
    ("core.validate_ms", ms_per_call "Solution.validate");
    ("serve.handle_ms.edit", ms_per_call "Server.handle:edit");
    ("serve.handle_ms.get", ms_per_call "Server.handle:get");
    ("serve.handle_ms.route_hit", ms_per_call "Server.handle:route_hit");
    ("par.dispatch_ms", per_op (fun r -> r.Span.self *. 1e3) (Span.named "Batch.run_on"));
    ("gc.minor_mw_per_op", per_op (fun r -> r.Span.minor_words /. 1e6) roots);
    ("gc.major_mw_per_op", per_op (fun r -> r.Span.major_words /. 1e6) roots);
    ("gc.major_gcs_per_op", per_op (fun r -> float_of_int r.Span.major_gcs) roots);
    ("core.minor_kw_per_op", kw_per_op "core");
    ("par.minor_kw_per_op", kw_per_op "par");
    ("serve.minor_kw_per_op", kw_per_op "serve");
    ("dme.minor_kw_per_call", kw_per_call "Cluster_route.candidates_for");
    ("select.minor_kw_per_call", kw_per_call "Tree_select.select");
  ]

let ensure_dir d = if not (Sys.file_exists d) then Unix.mkdir d 0o755

(* ---------- main ---------- *)

type args = { workload : string; seed : int; seconds : int; trace : bool }

let parse_args () =
  let usage = "bench.exe --workload NAME --seed N --seconds S --trace 0|1" in
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME hier-scaled | lattice-batch | serve-edit");
      ("--seed", Arg.Int (fun n -> seed := Some n), "N workload seed");
      ("--seconds", Arg.Int (fun n -> seconds := Some n), "S nominal measured seconds");
      ("--trace", Arg.Int (fun n -> trace := Some n), "0|1 traced per-layer run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  match (!seed, !seconds, !trace) with
  | Some seed, Some seconds, Some ((0 | 1) as t) when seconds >= 1 && List.mem_assoc !workload workloads ->
    { workload = !workload; seed; seconds; trace = t = 1 }
  | _ ->
    prerr_endline usage;
    exit 2

let metric_json pairs =
  J.Obj (List.map (fun (name, unit, v) -> (name, J.Obj [ ("value", J.Float v); ("unit", J.String unit) ])) pairs)

(* Ops on the same input must report the same outcome as the first op on
   it. Returns [c] with a failure added when it differs. *)
let same_outcome seen label (c : check) =
  match c.same with
  | None -> c
  | Some (input, outcome) -> (
    match Hashtbl.find_opt seen input with
    | None ->
      Hashtbl.add seen input (label, outcome);
      c
    | Some (_, o) when String.equal o outcome -> c
    | Some (first, o) ->
      {
        c with
        failures =
          c.failures
          @ [ Printf.sprintf "%s: outcome on %s differs from %s's: %s (was %s)" label input first outcome o ];
      })

let median_of a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  percentile s 0.5

let () =
  let args = parse_args () in
  let setup = List.assoc args.workload workloads in
  let setup_times = ref [] in
  let run = ref None in
  (* A set-up builds the workload's state: inputs generated, rendered and
     parsed, workspace, pool or server created, sessions bound. At least
     five set-ups, and up to eleven while they total under two seconds:
     cheap set-ups need more repetitions for a steady median. *)
  while
    let n = List.length !setup_times in
    n < 5 || (n < 11 && List.fold_left (fun a (_, d) -> a +. d) 0. !setup_times < 2.)
  do
    (* Release the previous repetition first, so repetitions do not stack
       up in the heap and inflate peak_rss_mb. *)
    Option.iter (fun r -> r.teardown ()) !run;
    run := None;
    Gc.compact ();
    Speed.sample ~at_least:3 ();
    let t0 = Span.now () in
    let r = setup ~seed:args.seed ~seconds:args.seconds in
    setup_times := (t0, Span.now () -. t0) :: !setup_times;
    run := Some r
  done;
  Speed.sample ~at_least:3 ();
  let run = Option.get !run in
  let seen = Hashtbl.create 64 in
  let warm = List.map (same_outcome seen "warm-up") (run.warmup ()) in
  Gc.compact ();
  let traced i = args.trace && i / run.trace_block mod 2 = 0 in
  let walls = Array.make run.ops 0. and cpus = Array.make run.ops 0. and starts = Array.make run.ops 0. in
  let failures = ref (List.concat_map (fun c -> List.map (fun f -> "warm-up: " ^ f) c.failures) warm) in
  let quality = ref [] and failed_ops = ref 0 in
  for i = 0 to run.ops - 1 do
    Speed.sample ();
    Span.enabled := traced i;
    let c0 = Sys.time () in
    let t0 = Span.now () in
    let k = Span.measure ~name:"op" ~layer:"op" (fun () -> run.op i) in
    walls.(i) <- Span.now () -. t0;
    starts.(i) <- t0;
    cpus.(i) <- Sys.time () -. c0;
    Span.enabled := false;
    let c = same_outcome seen (Printf.sprintf "op %d" i) (k ()) in
    if c.failures <> [] then incr failed_ops;
    failures := List.rev_append c.failures !failures;
    quality := List.rev_append c.quality !quality
  done;
  Speed.sample ~at_least:3 ();
  (* Probes run after the timed loop, so their allocation and cache
     traffic stay out of the traced ops. *)
  if args.trace then begin
    let probes = run.probes () in
    Span.enabled := true;
    List.iter (fun p -> Span.measure ~name:"probe" ~layer:"probe" p) probes;
    Span.enabled := false
  end;
  let layer_extra = if args.trace then run.layer_metrics () else [] in
  run.teardown ();
  let n = float_of_int run.ops in
  let quality = !quality in
  let nq = float_of_int (max 1 (List.length quality)) in
  let mean f = List.fold_left (fun a q -> a +. f q) 0. quality /. nq in
  (* Each set-up's and op's time, and its estimate at the reference speed. *)
  let setup_raw = List.map snd !setup_times in
  let setup_scaled = List.map (fun (t0, d) -> d *. Speed.factor_near t0 (t0 +. d)) !setup_times in
  let factors = Array.init run.ops (fun i -> Speed.factor_near starts.(i) (starts.(i) +. walls.(i))) in
  let figures walls cpus =
    let sorted = Array.copy walls in
    Array.sort Float.compare sorted;
    ( n /. Array.fold_left ( +. ) 0. walls,
      percentile sorted 0.5 *. 1e3,
      percentile sorted 0.9 *. 1e3,
      Array.fold_left ( +. ) 0. cpus /. n *. 1e3 )
  in
  let raw_rate, raw_p50, raw_p90, raw_cpu = figures walls cpus in
  let rate, p50, p90, cpu =
    figures (Array.mapi (fun i w -> w *. factors.(i)) walls) (Array.mapi (fun i c -> c *. factors.(i)) cpus)
  in
  let f = median_of factors in
  let e2e =
    [
      ("setup_s", Speed.median setup_scaled);
      ("ops_per_s", rate);
      ("op_p50_ms", p50);
      ("op_p90_ms", p90);
      ("cpu_ms_per_op", cpu);
      ("peak_rss_mb", peak_rss_mb ());
      ("ok_frac", (n -. float_of_int !failed_ops) /. n);
      ("completion", mean (fun q -> q.completion));
      ("matched_frac", mean (fun q -> q.matched));
      ("total_length", mean (fun q -> q.length));
    ]
  in
  Printf.printf "%s seed=%d: %d ops in %.2f s, set-ups %s s\n" args.workload args.seed run.ops
    (Array.fold_left ( +. ) 0. walls)
    (String.concat "/" (List.rev_map (Printf.sprintf "%.3f") setup_raw));
  Printf.printf
    "loop speed %.3f x reference (median over ops), scale factor %.3f; raw (unscaled): setup_s %.4f, ops_per_s %.4f, op_p50_ms %.4f, op_p90_ms %.4f, cpu_ms_per_op %.4f\n"
    (f *. f) f (Speed.median setup_raw) raw_rate raw_p50 raw_p90 raw_cpu;
  let metrics =
    if not args.trace then List.map (fun (name, unit) -> (name, unit, List.assoc name e2e)) end_to_end_names
    else begin
      let values =
        span_metrics ~ops:(List.length (Span.named "op")) @ layer_extra
        @ [ ("speed.factor", f); ("raw.ops_per_s", raw_rate); ("raw.op_p50_ms", raw_p50) ]
      in
      Span.self_table ~root:"op";
      Span.self_table ~root:"probe";
      ensure_dir out_dir;
      let trace_path =
        Filename.concat out_dir (Printf.sprintf "trace-%s-s%d-t%d.json" args.workload args.seed args.seconds)
      in
      Span.write_chrome trace_path;
      Printf.printf "chrome trace: %s\n" trace_path;
      (* Traced and untraced blocks alternate within this run, so they
         share the machine's state; compare their op times. *)
      let side t = Array.of_list (List.filteri (fun i _ -> traced i = t) (Array.to_list walls)) in
      let on = side true and off = side false in
      let avg a = Array.fold_left ( +. ) 0. a /. float_of_int (max 1 (Array.length a)) in
      if Array.length off = 0 then Printf.printf "tracing overhead: no untraced op in this run\n"
      else
        Printf.printf
          "tracing overhead: traced ops (%d) p50 %.3f ms, mean %.3f ms; untraced ops (%d) p50 %.3f ms, mean %.3f ms; p50 %+.1f%%, mean %+.1f%%\n"
          (Array.length on) (median_of on *. 1e3) (avg on *. 1e3) (Array.length off) (median_of off *. 1e3)
          (avg off *. 1e3)
          (100. *. (median_of on -. median_of off) /. median_of off)
          (100. *. (avg on -. avg off) /. avg off);
      List.map
        (fun (name, unit) -> (name, unit, Option.value ~default:0. (List.assoc_opt name values)))
        per_layer_names
    end
  in
  let problems = List.rev !failures in
  List.iter (fun f -> Printf.printf "FAILED %s\n" f) (first 20 problems);
  if List.length problems > 20 then Printf.printf "... %d more\n" (List.length problems - 20);
  print_endline
    (J.to_string
       (J.Obj
          [
            ("correct", J.Bool (problems = []));
            ("attempted", J.Int run.ops);
            ("failed", J.Int !failed_ops);
            ("metrics", metric_json metrics);
          ]))
