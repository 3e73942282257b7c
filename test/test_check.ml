(* The naive solution checker (test/naive_check.ml) as a second judge:
   it must accept what the router produces on the named designs, the
   corpus, a fault repair and a serve-style edit — agreeing with
   [Solution.validate] on each — and reject planted mutants. *)

open Pacor_geom
open Pacor_grid
open Pacor_valve

let corpus_dir =
  match Sys.getenv_opt "DUNE_SOURCEROOT" with
  | Some root -> Filename.concat root "corpus"
  | None -> Filename.concat (Sys.getcwd ()) "../../../corpus"

let route_with limits problem =
  match Pacor.Engine.run ~config:{ Pacor.Config.default with limits } problem with
  | Ok sol -> sol
  | Error e -> Alcotest.failf "engine failed at %s: %s" e.stage e.message

let route = route_with Pacor_route.Budget.no_limits

let design name = lazy (route (Pacor_designs.Table1.load_exn name))

let chip2 = design "Chip2"

let both_accept label (sol : Pacor.Solution.t) =
  (match Naive_check.check sol with
   | Ok () -> ()
   | Error es -> Alcotest.failf "%s: naive checker rejects: %s" label (String.concat "; " es));
  match Pacor.Solution.validate sol with
  | Ok () -> ()
  | Error es -> Alcotest.failf "%s: validate rejects: %s" label (String.concat "; " es)

let test_designs () =
  List.iter
    (fun name ->
       let sol = if name = "Chip2" then Lazy.force chip2 else Lazy.force (design name) in
       both_accept name sol)
    [ "Chip1"; "Chip2"; "S1"; "S2"; "S3"; "S4"; "S5" ]

let test_corpus () =
  let files =
    Sys.readdir corpus_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".chip")
    |> List.sort String.compare
  in
  List.iter
    (fun f ->
       match Pacor.Problem_io.load ~path:(Filename.concat corpus_dir f) with
       | Error _ -> () (* malformed fixtures are the parser tests' business *)
       | Ok problem ->
         (match Pacor.Engine.run problem with
          | Ok sol when Pacor.Solution.validate sol = Ok () -> both_accept f sol
          | Ok sol ->
            (* An instance the router cannot finish: the naive judge must
               not accept what validate rejects. *)
            Alcotest.(check bool) (f ^ ": naive rejects too") true
              (Result.is_error (Naive_check.check sol))
          | Error _ -> ()))
    files

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec scan i = i + nn <= nh && (String.sub hay i nn = needle || scan (i + 1)) in
  scan 0

let id_of (c : Pacor.Solution.routed_cluster) = c.routed.Pacor.Routed.cluster.Cluster.id

let multi_valve (sol : Pacor.Solution.t) =
  match
    List.find_opt
      (fun (c : Pacor.Solution.routed_cluster) -> List.length c.routed.Pacor.Routed.cluster.Cluster.valves >= 2)
      sol.clusters
  with
  | Some c -> c
  | None -> Alcotest.fail "no multi-valve cluster"

(* A channel cell of [c] that is not a valve cell. *)
let channel_cell (c : Pacor.Solution.routed_cluster) =
  let valves = Cluster.positions c.routed.Pacor.Routed.cluster in
  match
    List.find_opt
      (fun p -> not (List.exists (Point.equal p) valves))
      (List.concat_map Path.points c.routed.Pacor.Routed.paths)
  with
  | Some p -> p
  | None -> Alcotest.fail "cluster has no non-valve channel cell"

let test_repair () =
  let sol = Lazy.force chip2 in
  let faults = [ Pacor_fault.Fault.Blocked_cell (channel_cell (multi_valve sol)) ] in
  match Pacor_fault.Repair.run ~faults sol with
  | Error e -> Alcotest.failf "repair failed: %s" e
  | Ok rep ->
    Alcotest.(check bool) "repair re-routed something" true (rep.Pacor_fault.Repair.dirty <> []);
    both_accept "Chip2 repair" rep.Pacor_fault.Repair.solution

(* A serve [add_obstacle] delta, phrased as the daemon phrases it: block a
   channel cell, re-route every cluster whose footprint holds it. *)
let test_serve_delta () =
  let sol = Lazy.force chip2 in
  let pos = channel_cell (multi_valve sol) in
  match Pacor.Problem.add_obstacle sol.problem pos with
  | Error e -> Alcotest.failf "add_obstacle: %s" e
  | Ok problem ->
    let is_dirty c = Point.Set.mem pos (Validate_oracle.cluster_cells c) in
    (match Pacor_fault.Repair.reroute ~stage:"add_obstacle" ~problem ~is_dirty sol with
     | Error e -> Alcotest.failf "reroute failed: %s" e
     | Ok r -> both_accept "Chip2 add_obstacle delta" r.Pacor_fault.Repair.solution)

(* ---------- The rip-up ladder on a sealed room ---------- *)

(* A 3x3 room walled by obstacles on three sides and sealed on the fourth
   by a length-matched pair's channel (valves at (2,6) and (6,6)). Inside
   sits an ordinary pair A = (3,4), B = (5,4), compatible with each other
   but not with the sealing pair, so clustering makes it one multi-valve
   ordinary cluster whose channel has no way out. With [gap] the bottom
   wall has a hole at (4,2) over a pin at (4,0). *)
let sealed_room ~gap =
  let seq s = Result.get_ok (Activation.sequence_of_string s) in
  let valve id x y s = Valve.make ~id ~position:(Point.make x y) ~sequence:(seq s) in
  let bottom =
    if gap then [ Rect.make ~x0:2 ~y0:2 ~x1:3 ~y1:2; Rect.make ~x0:5 ~y0:2 ~x1:6 ~y1:2 ]
    else [ Rect.make ~x0:2 ~y0:2 ~x1:6 ~y1:2 ]
  in
  let grid =
    Routing_grid.create ~width:9 ~height:9
      ~obstacles:
        (Rect.make ~x0:2 ~y0:3 ~x1:2 ~y1:5 :: Rect.make ~x0:6 ~y0:3 ~x1:6 ~y1:5 :: bottom)
      ()
  in
  let l1 = valve 0 2 6 "10" and l2 = valve 1 6 6 "10" in
  let a = valve 2 3 4 "01" and b = valve 3 5 4 "01" in
  let pins =
    (if gap then [ Point.make 4 0 ] else [])
    @ [ Point.make 1 8; Point.make 3 8; Point.make 5 8; Point.make 7 8 ]
  in
  Pacor.Problem.create_exn ~grid ~valves:[ l1; l2; a; b ]
    ~lm_clusters:[ Cluster.make_exn ~id:0 ~length_matched:true [ l1; l2 ] ]
    ~pins ()

let room_valves = [ 2; 3 ]

let room_cluster (clusters : Pacor.Solution.routed_cluster list) =
  match
    List.find_opt
      (fun (c : Pacor.Solution.routed_cluster) ->
         Cluster.valve_ids c.routed.Pacor.Routed.cluster = room_valves)
      clusters
  with
  | Some c -> c
  | None -> Alcotest.fail "the room pair is not one cluster"

(* The engine's ladder: the room pair fails escape and stays one ordinary
   cluster (splitting it could reach no pin the pair could not: its every
   cell is already an escape start), so the jailer rung takes it at once.
   It lays one lane from the pair's channel to a pin, as a channel of the
   pair, and reroutes the sealing pair around it; the next escape round
   only needs the lane's last hop. *)
let test_room_engine () =
  let sol = route (sealed_room ~gap:false) in
  let room = room_cluster sol.clusters in
  (match room.escape, room.routed.Pacor.Routed.paths with
   | Some e, [ lane; _channel ] ->
     Alcotest.(check bool) "the escape starts where the lane ends" true
       (Point.equal e.Pacor_flow.Escape.start_cell (Path.target lane));
     Alcotest.(check int) "the escape is the lane's last hop" 1 (Path.length e.path)
   | None, _ -> Alcotest.fail "the room pair has no pin"
   | Some _, paths ->
     Alcotest.failf "expected the pair's channel and one lane, got %d paths" (List.length paths));
  both_accept "engine sealed room" sol

(* Repair's ladder: route with the gap open (the pair escapes through it
   as one cluster), then close the gap. Repair rips the pair, re-routes it
   and fails its escape. Its jailer, the sealing pair, is held, and the
   jailer rung only demotes dirty clusters, so nothing on the ladder can
   change: repair quarantines the pair after that one escape solve, and
   the sealing pair is reused. The reroute stage's searches are the
   pair's MST and that solve's one search: splitting the pair into
   singletons first would cost a second solve, two more searches, and
   quarantine the same valves. *)
let test_room_repair () =
  let sol = route (sealed_room ~gap:true) in
  let room = room_cluster sol.clusters in
  let hole = Point.make 4 2 in
  Alcotest.(check bool) "the pair escapes through the gap" true
    (Point.Set.mem hole (Validate_oracle.cluster_cells room));
  match Pacor.Problem.add_obstacle sol.problem hole with
  | Error e -> Alcotest.failf "add_obstacle: %s" e
  | Ok problem ->
    let is_dirty c = Point.Set.mem hole (Validate_oracle.cluster_cells c) in
    (match Pacor_fault.Repair.reroute ~problem ~is_dirty sol with
     | Error e -> Alcotest.failf "reroute failed: %s" e
     | Ok r ->
       let repaired = r.Pacor_fault.Repair.solution in
       Alcotest.(check (list int)) "only the room pair is ripped"
         [ id_of room ] r.Pacor_fault.Repair.dirty;
       Alcotest.(check (list int)) "both room valves quarantined" room_valves
         r.Pacor_fault.Repair.quarantined;
       Alcotest.(check (list int)) "the sealing pair is reused" [ 0 ]
         (List.map id_of repaired.clusters);
       (match List.assoc_opt "reroute" repaired.stage_search with
        | None -> Alcotest.fail "no reroute stage counters"
        | Some (s : Pacor_route.Search_stats.snapshot) ->
          Alcotest.(check int) "reroute searches: one MST, one escape solve" 2 s.searches);
       both_accept "repair sealed room" repaired)

(* ---------- Rungs no committed design reaches ---------- *)

(* Neither the jailer rung nor rematch's joint reroute fires on Chip1,
   Chip2, S1-S5, Scaled1-6 or the corpus, so the SVG digests and search
   pins in scripts/ci.sh never see their output. These pins do: the SVG
   digest of the solution (every channel and escape path, no runtime) and
   the per-stage search lines ([allocs] aside, as in ci.sh). *)

let verbose_route problem =
  let buf = Buffer.create 1024 in
  let err = Format.err_formatter in
  let saved = Format.pp_get_formatter_out_functions err () in
  Format.pp_set_formatter_output_functions err (Buffer.add_substring buf) ignore;
  let result =
    Fun.protect
      ~finally:(fun () ->
        Format.pp_print_flush err ();
        Format.pp_set_formatter_out_functions err saved)
      (fun () -> Pacor.Engine.run ~config:{ Pacor.Config.default with verbose = true } problem)
  in
  match result with
  | Ok sol -> (sol, Buffer.contents buf)
  | Error e -> Alcotest.failf "engine failed at %s: %s" e.stage e.message

(* [Report.print_search_stats]' lines, less the trailing [allocs=]
   counter (workspace growth, not search work). *)
let search_lines sol =
  let drop_allocs l =
    let rec go i =
      if i + 8 > String.length l then l
      else if String.sub l i 8 = " allocs=" then String.sub l 0 i
      else go (i + 1)
    in
    go 0
  in
  Format.asprintf "%a" Pacor.Report.print_search_stats sol
  |> String.split_on_char '\n'
  |> List.filter_map (fun l -> if l = "" then None else Some (drop_allocs l))

let svg_digest sol = Digest.to_hex (Digest.string (Pacor.Svg.solution sol))

let check_pins label ~log ~fires (sol, out) ~digest ~search =
  Alcotest.(check bool) (label ^ ": rung fires") true (contains out log);
  Alcotest.(check bool) (label ^ ": " ^ fires) true (contains out fires);
  both_accept label sol;
  Alcotest.(check string) (label ^ ": svg digest") digest (svg_digest sol);
  Alcotest.(check (list string)) (label ^ ": search lines") search (search_lines sol)

let test_pin_jailer () =
  let routed = verbose_route (sealed_room ~gap:false) in
  check_pins "sealed room" ~log:"jailer" ~fires:"rerouting 1 jailer clusters" routed
    ~digest:"4938ef45452236e2c3282fa2d3f7f7c1"
    ~search:
      [ "search lm-routing     searches=1 refused=0 pops=5 pushes=13 touched=16 relax=12 resets=2";
        "search plain-routing  searches=1 refused=0 pops=3 pushes=7 touched=8 relax=6 resets=1";
        "search escape         searches=9 refused=0 pops=118 pushes=148 touched=362 relax=151 resets=9";
        "search total          searches=11 refused=0 pops=126 pushes=168 touched=386 relax=169 resets=12" ]

(* The joint reroute needs two trees, one of them unmatched after the
   detour stage with no rescuing candidate of its own. The congested
   family below has no length-matched cluster and the synthetic one at
   most one tree, so neither can reach it; this synthetic chip with two
   length-matched triples (delta 1) does, and both trees come back
   matched. *)
let joint_rematch_problem () =
  Pacor_designs.Synthetic.generate_exn
    { Pacor_designs.Synthetic.name = "joint"; width = 18; height = 18; obstacle_cells = 23;
      lm_cluster_sizes = [ 3; 3 ]; singleton_valves = 2; pin_count = 10; seed = 150148L;
      delta = 1 }

let test_pin_rematch_joint () =
  check_pins "joint rematch" ~log:"rematch-joint" ~fires:"jointly rerouted"
    (verbose_route (joint_rematch_problem ())) ~digest:"ec98d4297d67b741f0a8b1a8c5027d53"
    ~search:
      [ "search lm-routing     searches=7 refused=0 pops=85 pushes=136 touched=312 relax=162 resets=8";
        "search escape         searches=6 refused=0 pops=406 pushes=470 touched=1219 relax=455 resets=6";
        "search detour         searches=1 refused=1 pops=0 pushes=0 touched=0 relax=0 resets=1";
        "search rematch        searches=256 refused=2 pops=7018 pushes=8580 touched=25806 relax=11510 resets=292";
        "search total          searches=270 refused=3 pops=7509 pushes=9186 touched=27337 relax=12127 resets=307" ]

(* ---------- Byte-identity on the lattices ---------- *)

(* FPVA lattices put many length-matched trees into one cluster-routing
   negotiation (28 seven-valve trees on the 14x14 lattice, one per row
   chunk), which no design pinned in scripts/ci.sh does. The 14x14 spec
   is one of the lattice-batch workload's (perfbench); fpva-8x8 is the
   family's tree lattice. Pinned like the rungs above: SVG digest and
   per-stage search lines. *)

let pin_lattice label problem ~digest ~search =
  let sol, _ = verbose_route problem in
  both_accept label sol;
  Alcotest.(check string) (label ^ ": svg digest") digest (svg_digest sol);
  Alcotest.(check (list string)) (label ^ ": search lines") search (search_lines sol)

let lattice14 () =
  Pacor_designs.Fpva.generate_exn
    { Pacor_designs.Fpva.name = "fpva14-ring322205"; rows = 14; cols = 14; pitch = 5;
      group = 7; seed = 322205L; delta = 2 }

let test_pin_lattice14 () =
  pin_lattice "fpva14" (lattice14 ())
    ~digest:"587478770592ed35002eb0228957d9b5"
    ~search:
      [ "search lm-routing     searches=336 refused=0 pops=3136 pushes=5824 touched=11200 relax=6216 resets=337";
        "search escape         searches=30 refused=0 pops=6862 pushes=8860 touched=20875 relax=8611 resets=30";
        "search detour         searches=0 refused=0 pops=0 pushes=0 touched=0 relax=0 resets=0";
        "search total          searches=366 refused=0 pops=9998 pushes=14684 touched=32075 relax=14827 resets=367" ]

let test_pin_lattice8 () =
  let spec =
    List.find (fun (s : Pacor_designs.Fpva.spec) -> s.name = "fpva-8x8")
      (Pacor_designs.Fpva.family ())
  in
  pin_lattice "fpva-8x8" (Pacor_designs.Fpva.generate_exn spec)
    ~digest:"312b0f8bae39dc70edfe87ac2860efe9"
    ~search:
      [ "search lm-routing     searches=72 refused=0 pops=360 pushes=768 touched=1152 relax=760 resets=73";
        "search escape         searches=26 refused=0 pops=2229 pushes=3032 touched=6500 relax=2935 resets=26";
        "search total          searches=98 refused=0 pops=2589 pushes=3800 touched=7652 relax=3695 resets=99" ]

(* A second pair of triples (delta 0) whose joint reroute escapes both
   trees but cannot match them, so rematch puts both back as they were. *)
let failed_joint_problem () =
  Pacor_designs.Synthetic.generate_exn
    { Pacor_designs.Synthetic.name = "failed-joint"; width = 19; height = 19; obstacle_cells = 24;
      lm_cluster_sizes = [ 3; 3 ]; singleton_valves = 2; pin_count = 10; seed = 84600L;
      delta = 0 }

let test_pin_failed_joint () =
  check_pins "failed joint" ~log:"rematch-joint: detour matched" ~fires:"rematch-joint"
    (verbose_route (failed_joint_problem ())) ~digest:"24501c393175fb23341e9a1c734069ec"
    ~search:
      [ "search lm-routing     searches=8 refused=0 pops=61 pushes=101 touched=212 relax=112 resets=9";
        "search escape         searches=6 refused=0 pops=394 pushes=461 touched=1254 relax=446 resets=6";
        "search detour         searches=0 refused=0 pops=0 pushes=0 touched=0 relax=0 resets=0";
        "search rematch        searches=388 refused=0 pops=10294 pushes=12893 touched=37447 relax=16964 resets=446";
        "search total          searches=402 refused=0 pops=10749 pushes=13455 touched=38913 relax=17522 resets=461" ]

(* ---------- A budget that never trips changes nothing ---------- *)

(* A budget limit must only stop work early: these two generated chips,
   whose escape solves find disjoint reachable regions, once routed
   differently under limits that never run out than with none. *)
let untripped_limits =
  [ ("unlimited", Pacor_route.Budget.no_limits);
    ("max_expansions = max_int", Pacor_route.Budget.limits ~max_expansions:max_int ());
    ("timeout 3600 s", Pacor_route.Budget.limits ~timeout_s:3600. ()) ]

let test_untripped_budget () =
  List.iter
    (fun (spec : Pacor_designs.Synthetic.spec) ->
       let problem = Pacor_designs.Synthetic.generate_exn spec in
       let digests =
         List.map
           (fun (label, limits) ->
              let sol = route_with limits problem in
              both_accept (spec.name ^ ", " ^ label) sol;
              svg_digest sol)
           untripped_limits
       in
       List.iter
         (fun (d, (label, _)) ->
            Alcotest.(check string) (spec.name ^ ": " ^ label ^ " = unlimited") (List.hd digests) d)
         (List.combine digests untripped_limits))
    [ { Pacor_designs.Synthetic.name = "untripped-19"; width = 19; height = 19;
        obstacle_cells = 12; lm_cluster_sizes = [ 2; 3 ]; singleton_valves = 0; pin_count = 7;
        seed = 2781L; delta = 1 };
      { Pacor_designs.Synthetic.name = "untripped-28"; width = 28; height = 28;
        obstacle_cells = 36; lm_cluster_sizes = [ 2; 3; 3; 3 ]; singleton_valves = 3;
        pin_count = 18; seed = 2720L; delta = 2 } ]

(* ---------- The owner layer against the union oracle ---------- *)

let assignment (c : Pacor.Solution.routed_cluster) =
  { Pacor.Escape_stage.routed = c.routed; escape = c.escape }

let layer_holds ?retired label ~grid workspace assignments =
  match Owner_oracle.check ~grid ?retired workspace assignments with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: owner layer: %s" label e

(* [Routed.with_edge_path] edits a tree's claimed set leg by leg as the
   detour stage lengthens legs; every tree's set must equal the one
   rebuilt from its legs and valves. *)
let claims_rebuilt label assignments =
  List.iter
    (fun (a : Pacor.Escape_stage.assignment) ->
       match a.routed.Pacor.Routed.shape with
       | Some (Pacor.Routed.Tree { candidate; edge_paths }) ->
         let rebuilt = Pacor.Routed.make_tree a.routed.cluster ~candidate ~edge_paths in
         if not (Point.Set.equal a.routed.claimed rebuilt.claimed) then
           Alcotest.failf "%s: cluster %d: claimed cells differ from a rebuild" label
             a.routed.cluster.Cluster.id
       | Some (Pacor.Routed.Pair _) | None -> ())
    assignments

(* The engine's stages run one by one on one workspace, as [Engine.run]
   runs them: after the ladder (with both rungs), the detour
   stage and rematch, the owner layer must hold exactly the union
   oracle's cells, and the result must be [sol], the engine's own. *)
let staged_layers label (problem : Pacor.Problem.t) (sol : Pacor.Solution.t) =
  let config = Pacor.Config.default in
  let { Pacor.Problem.grid; pins; delta; _ } = problem in
  let workspace = Pacor_route.Workspace.create () in
  let staged =
    Pacor.Engine.scoped ~workspace config.Pacor.Config.limits (fun workspace ->
      match Clustering.cluster ~seeds:problem.lm_clusters problem.valves with
      | Error e -> Alcotest.failf "%s: clustering: %s" label e
      | Ok partition ->
        let clusters = partition.Clustering.clusters in
        let fresh_id = Cluster.fresh_ids clusters in
        Pacor_route.Workspace.load_owners workspace grid
          ~reserved:(Pacor.Problem.reserved_cells problem);
        let lm =
          Pacor.Cluster_route.route ~workspace ~config ~grid
            ~obstacles:(Pacor_route.Workspace.occupied workspace) clusters
        in
        List.iter (Pacor.Routed.occupy workspace) lm.routed;
        let plain =
          Pacor.Plain_route.route_all ~workspace ~grid ~fresh_id
            (List.filter (fun c -> not (Cluster.needs_matching c)) clusters @ lm.demoted)
        in
        List.iter (Pacor.Routed.occupy workspace) plain.routed;
        let retry =
          Pacor.Engine.alternative_candidate ~config ~workspace ~grid (Hashtbl.create 16)
        in
        let unjail = Pacor.Engine.unjail ~config ~workspace ~grid ~fresh_id ~pins in
        match
          Pacor.Escape_stage.ripup ~retry ~unjail ~config ~workspace ~grid ~fresh_id ~pins
            (lm.routed @ plain.routed)
        with
        | Error e -> Alcotest.failf "%s: escape: %s" label e
        | Ok escaped ->
          let after stage assignments =
            layer_holds (Printf.sprintf "%s: after %s" label stage) ~grid workspace
              assignments;
            claims_rebuilt (Printf.sprintf "%s: after %s" label stage) assignments;
            assignments
          in
          after "ripup" escaped.assignments
          |> Pacor.Detour_stage.around ~workspace ~grid ~delta ~theta:config.theta
          |> after "around"
          |> Pacor.Rematch_stage.run ~config ~workspace ~grid ~delta ~pins
          |> after "rematch")
  in
  match staged with
  | Error e -> Alcotest.failf "%s: staged run raised: %s" label e
  | Ok assignments ->
    let key (a : Pacor.Escape_stage.assignment) =
      ( a.routed.Pacor.Routed.cluster.Cluster.id,
        Point.Set.elements a.routed.Pacor.Routed.claimed,
        Option.map (fun (e : Pacor_flow.Escape.routed) -> Path.points e.path) a.escape )
    in
    if List.map key assignments <> List.map (fun c -> key (assignment c)) sol.clusters then
      Alcotest.failf "%s: the staged run differs from Engine.run" label

let test_layers_rungs () =
  List.iter
    (fun (label, problem) -> staged_layers label problem (route problem))
    [ ("sealed room", sealed_room ~gap:false); ("joint rematch", joint_rematch_problem ());
      ("failed joint", failed_joint_problem ()); ("fpva14", lattice14 ()) ]

(* ---------- Repair of every cluster is the engine's route ---------- *)

(* Repair runs the engine's stages 2-5 on its dirty set, so with every
   cluster dirty and nothing held it must reproduce the engine's route
   wherever the engine's route fired no rung: no demotion, declustering,
   rip-up round (the retry and jailer rungs only run in one) or rematch
   rescue. Where one fired, repair may differ: a tree the engine demoted
   can come back matched on a fresh try. *)
let rung_fired log =
  List.exists (contains log) [ "escape round"; "rescued"; "jointly rerouted" ]
  || not (contains log " 0 demoted")
  || not (contains log "(0 declustered)")

let test_repair_all_is_engine () =
  List.iter
    (fun (family, gen, seeds, least) ->
       let checked = ref 0 in
       for seed = 1 to seeds do
         match Families.instance gen seed with
         | Error _ -> ()
         | Ok problem ->
           let sol, log = verbose_route problem in
           if not (rung_fired log) then begin
             incr checked;
             let sol = { sol with config = { sol.config with verbose = false } } in
             match Pacor_fault.Repair.reroute ~problem ~is_dirty:(fun _ -> true) sol with
             | Error e -> Alcotest.failf "%s seed %d: reroute failed: %s" family seed e
             | Ok r ->
               Alcotest.(check string)
                 (Printf.sprintf "%s seed %d: repair-all svg digest" family seed)
                 (svg_digest sol) (svg_digest r.Pacor_fault.Repair.solution)
           end
       done;
       if !checked < least then
         Alcotest.failf "%s: only %d of seeds 1-%d fire no rung" family !checked seeds)
    [ ("trees", Families.trees, 400, 20); ("synthetic", Families.synthetic, 150, 100) ]

(* The serve entry point: a route, its byte-identical repeat (answered by
   the raw-text key) and a reformatted text of the same instance (answered
   by the canonical key) carry the same fingerprint and result bytes, and
   the score of [sol], the engine's own answer. *)
let serve_routes (problem : Pacor.Problem.t) (sol : Pacor.Solution.t) =
  let module J = Pacor_serve.Json in
  let server = Pacor_serve.Server.create () in
  let text = Pacor.Problem_io.to_string problem in
  (* Comments between the directives, and all but the header reversed. *)
  let reformatted =
    let lines = List.filter (fun l -> l <> "" && l.[0] <> '#') (String.split_on_char '\n' text) in
    let is_header l =
      List.exists (fun k -> String.starts_with ~prefix:k l) [ "name "; "grid "; "delta " ]
    in
    let header, rest = List.partition is_header lines in
    String.concat "\n# reformatted\n" (header @ List.rev rest) ^ "\n"
  in
  (* The [cached] flag, the raw result bytes (the response's tail after
     ["result":], as a shell client cuts them) and the parsed result. *)
  let route text =
    let request = J.to_string (J.Obj [ ("op", J.String "route"); ("problem", J.String text) ]) in
    let line = (Pacor_serve.Server.handle server request).Pacor_serve.Server.line in
    let marker = "\"result\":" in
    let m = String.length marker in
    let rec find i =
      if i + m > String.length line then QCheck.Test.fail_reportf "serve route failed: %s" line
      else if String.sub line i m = marker then
        String.sub line (i + m) (String.length line - i - m - 1)
      else find (i + 1)
    in
    match J.of_string line with
    | Ok j ->
      (Option.bind (J.member "cached" j) J.bool_opt, find 0, Option.get (J.member "result" j))
    | Error e -> QCheck.Test.fail_reportf "unparseable response: %s" e
  in
  let first, bytes, fields = route text in
  let int key = Option.bind (J.member key fields) J.int_opt in
  let stats = Pacor.Solution.stats sol in
  let routed_valves =
    List.fold_left
      (fun n (c : Pacor.Solution.routed_cluster) ->
         if c.escape = None then n else n + Cluster.size c.routed.Pacor.Routed.cluster)
      0 sol.clusters
  in
  if first <> Some false then QCheck.Test.fail_report "the first serve route is cached";
  if J.member "fingerprint" fields <> Some (J.String (Pacor.Problem_io.fingerprint problem)) then
    QCheck.Test.fail_report "serve fingerprint differs";
  if int "total_length" <> Some stats.total_length
     || int "matched_clusters" <> Some stats.matched_clusters
     || int "routed_valves" <> Some routed_valves
  then QCheck.Test.fail_report "serve route disagrees with Engine.run on score";
  List.iter
    (fun (label, text) ->
       let cached, again, _ = route text in
       if cached <> Some true then QCheck.Test.fail_reportf "%s: not cached" label;
       if again <> bytes then QCheck.Test.fail_reportf "%s: result bytes differ" label)
    [ ("byte-identical repeat", text); ("reformatted text", reformatted) ]

(* ---------- Repair through the shared stages, fuzzed ---------- *)

let prop_repair_fuzz =
  QCheck.Test.make ~name:"repair of every and of a random dirty set passes both judges"
    ~count:120
    (QCheck.make
       ~print:(fun (problem, seed) ->
         Printf.sprintf "dirty-set seed %d\n%s" seed
           (match problem with Ok p -> Pacor.Problem_io.to_string p | Error e -> e))
       QCheck.Gen.(pair (oneof [ Families.synthetic; Families.congested ]) int))
    (fun (problem, subset_seed) ->
       match problem with
       | Error _ -> QCheck.assume_fail ()
       | Ok problem ->
         let sol = route problem in
         let capped = route_with (Pacor_route.Budget.limits ~max_expansions:max_int ()) problem in
         if svg_digest capped <> svg_digest sol then
           QCheck.Test.fail_report "max_expansions = max_int routes differently from no limits";
         staged_layers "engine" problem sol;
         serve_routes problem sol;
         (* The engine's own result: both judges agree on it. *)
         if Result.is_ok (Pacor.Solution.validate sol) then both_accept "engine" sol
         else if Result.is_ok (Naive_check.check sol) then
           QCheck.Test.fail_report "naive accepts what validate rejects";
         let rng = Random.State.make [| subset_seed |] in
         let picked =
           List.filter_map
             (fun (c : Pacor.Solution.routed_cluster) ->
                if Random.State.bool rng then Some (id_of c) else None)
             sol.clusters
         in
         List.iter
           (fun (label, is_dirty) ->
              let workspace = Pacor_route.Workspace.create () in
              match Pacor_fault.Repair.reroute ~workspace ~problem ~is_dirty sol with
              | Error e when contains e "no valves survive" ->
                () (* every valve quarantined: the one structural error *)
              | Error e -> QCheck.Test.fail_reportf "%s: reroute failed: %s" label e
              | Ok r ->
                both_accept label r.Pacor_fault.Repair.solution;
                let retired =
                  List.filter_map
                    (fun (v : Valve.t) ->
                       if List.mem v.id r.Pacor_fault.Repair.quarantined then Some v.position
                       else None)
                    problem.Pacor.Problem.valves
                  |> Point.Set.of_list
                in
                layer_holds ~retired (label ^ ": repair") ~grid:problem.Pacor.Problem.grid
                  workspace
                  (List.map assignment r.Pacor_fault.Repair.solution.clusters);
                (* Clean clusters come back as they were, except a pinless
                   one: repair rebuilds it rather than leave its valves
                   unrouted. *)
                List.iter
                  (fun (c : Pacor.Solution.routed_cluster) ->
                     if not (is_dirty c || c.escape = None
                             || List.memq c r.Pacor_fault.Repair.solution.clusters)
                     then QCheck.Test.fail_reportf "%s: cluster %d not reused" label (id_of c))
                  sol.clusters)
           [ ("all dirty", fun _ -> true);
             ("random subset", fun c -> List.mem (id_of c) picked) ];
         true)

(* ---------- The one-pass validator against its oracle ---------- *)

(* [Solution.validate] must give the verdict of the two-pass validator
   kept in test/validate_oracle.ml, message for message and in the same
   order, on valid solutions and on mutants of them. *)

(* A mutant can break an invariant of [Routed] that the matched check
   leans on; both judges must then raise alike. *)
let verdict judge sol =
  match judge sol with
  | Ok () -> "valid"
  | Error es -> String.concat "\n" es
  | exception e -> "raised " ^ Printexc.to_string e

let same_verdict ?(invalid = false) label (sol : Pacor.Solution.t) =
  let got = verdict Pacor.Solution.validate sol
  and want = verdict Validate_oracle.validate sol in
  if got <> want then
    Alcotest.failf "%s: validate says\n%s\nthe oracle says\n%s" label got want;
  if invalid && want = "valid" then Alcotest.failf "%s: the mutant passes" label

let with_claimed (c : Pacor.Solution.routed_cluster) cells =
  let claimed = List.fold_right Point.Set.add cells c.routed.Pacor.Routed.claimed in
  { c with routed = { c.routed with Pacor.Routed.claimed } }

let with_escape (c : Pacor.Solution.routed_cluster) f =
  { c with escape = Some (f (Option.get c.escape)) }

let with_cluster (c : Pacor.Solution.routed_cluster) cluster =
  { c with routed = { c.routed with Pacor.Routed.cluster } }

let pick rng = function
  | [] -> None
  | l -> Some (List.nth l (Random.State.int rng (List.length l)))

(* One of [firsts] and a different one of [seconds]. *)
let two rng firsts seconds =
  Option.bind (pick rng firsts) (fun a ->
    Option.map (fun b -> (a, b)) (pick rng (List.filter (fun c -> c != a) seconds)))

let replace (sol : Pacor.Solution.t) target f =
  { sol with clusters = List.map (fun c -> if c == target then f c else c) sol.clusters }

let clusters_where (sol : Pacor.Solution.t) f = List.filter f sol.clusters
let escaped sol = clusters_where sol (fun c -> c.escape <> None)
let multi_valves sol = clusters_where sol (fun c -> Cluster.size c.routed.Pacor.Routed.cluster >= 2)
let escape_cells (c : Pacor.Solution.routed_cluster) = Path.points (Option.get c.escape).path

let blocked_cells (sol : Pacor.Solution.t) =
  let cells = ref [] in
  Obstacle_map.iter_blocked (Routing_grid.obstacles sol.problem.grid) (fun p ->
    cells := p :: !cells);
  !cells

(* Not an error: a cluster's escape starts on its own cells. *)
let own_crossing = "an escape crossing its own cluster"

(* An error unless the flagged cluster meets the matching rule anyway. *)
let false_matched = "a false matched flag"

(* Every mutation the validator has a message for, each [None] where the
   solution offers nothing to mutate; all but [own_crossing] and
   [false_matched] always make the solution invalid. *)
let mutations : (string * (Random.State.t -> Pacor.Solution.t -> Pacor.Solution.t option)) list =
  let add_cells sol c cells = replace sol c (fun c -> with_claimed c cells) in
  [ ( "cell on an obstacle",
      fun rng sol ->
        match (pick rng sol.clusters, pick rng (blocked_cells sol)) with
        | Some c, Some p -> Some (add_cells sol c [ p ])
        | _ -> None );
    ( "an escape over obstacles",
      (* The escape's cells and the claimed ones interleave in point
         order, and one cell is in both. *)
      fun rng sol ->
        let blocked = blocked_cells sol in
        match (pick rng (escaped sol), pick rng blocked, pick rng blocked) with
        | Some c, Some (p : Point.t), Some q ->
          let path = Path.of_points [ Point.make (p.x - 1) p.y; p; Point.make (p.x + 1) p.y ] in
          Some
            (replace sol c (fun c ->
               with_escape (with_claimed c [ p; q ]) (fun e -> { e with path })))
        | _ -> None );
    ( "cells off the grid",
      fun rng sol ->
        let w = Routing_grid.width sol.problem.grid and h = Routing_grid.height sol.problem.grid in
        let off () =
          match Random.State.int rng 4 with
          | 0 -> Point.make (-1) (Random.State.int rng h)
          | 1 -> Point.make w (Random.State.int rng h)
          | 2 -> Point.make (Random.State.int rng w) (-1)
          | _ -> Point.make (Random.State.int rng w) (h + Random.State.int rng 3)
        in
        Option.map (fun c -> add_cells sol c [ off (); off () ]) (pick rng sol.clusters) );
    ( "an off-grid cell shared by two clusters",
      fun rng sol ->
        let p = Point.make (-2) (Random.State.int rng 5) in
        Option.map
          (fun (a, b) -> add_cells (add_cells sol a [ p ]) b [ p ])
          (two rng sol.clusters sol.clusters) );
    ( "claimed/claimed overlap",
      fun rng sol ->
        Option.bind (two rng sol.clusters sol.clusters) (fun (a, b) ->
          pick rng (Point.Set.elements b.routed.Pacor.Routed.claimed)
          |> Option.map (fun p -> add_cells sol a [ p ])) );
    ( "escape/claimed overlap",
      fun rng sol ->
        Option.bind (two rng sol.clusters (escaped sol)) (fun (a, b) ->
          Option.map (fun p -> add_cells sol a [ p ]) (pick rng (escape_cells b))) );
    ( "escape/escape overlap",
      fun rng sol ->
        Option.map
          (fun (a, (b : Pacor.Solution.routed_cluster)) ->
             let path = (Option.get b.escape).path in
             replace sol a (fun c -> with_escape c (fun e -> { e with path })))
          (two rng (escaped sol) (escaped sol)) );
    ( own_crossing,
      fun rng sol ->
        Option.map (fun c -> add_cells sol c (escape_cells c)) (pick rng (escaped sol)) );
    ( "a stolen pin",
      fun rng sol ->
        Option.map
          (fun (a, (b : Pacor.Solution.routed_cluster)) ->
             let pin = (Option.get b.escape).pin in
             replace sol a (fun c -> with_escape c (fun e -> { e with pin })))
          (two rng (escaped sol) (escaped sol)) );
    ( "a non-pin escape",
      fun rng sol ->
        let pin = Point.make (-1) (-1) in
        Option.map
          (fun a -> replace sol a (fun c -> with_escape c (fun e -> { e with pin })))
          (pick rng (escaped sol)) );
    ( "a cluster without an escape",
      fun rng sol ->
        Option.map
          (fun a -> replace sol a (fun c -> { c with escape = None }))
          (pick rng (escaped sol)) );
    ( "a dropped valve",
      fun rng sol ->
        Option.bind (pick rng (multi_valves sol)) (fun (a : Pacor.Solution.routed_cluster) ->
          let cl = a.routed.Pacor.Routed.cluster in
          (* [Error] on a cluster an earlier mutation made incompatible. *)
          Cluster.make ~id:cl.id ~length_matched:cl.length_matched (List.tl cl.valves)
          |> Result.to_option
          |> Option.map (fun cluster ->
            replace sol a (fun c -> { (with_cluster c cluster) with matched = false }))) );
    ( "a duplicated valve",
      fun rng sol ->
        Option.map
          (fun a -> { sol with clusters = sol.clusters @ [ a ] })
          (pick rng sol.clusters) );
    ( false_matched,
      fun rng sol ->
        Option.map
          (fun a -> replace sol a (fun c -> { c with matched = true }))
          (pick rng (clusters_where sol (fun c -> not c.matched))) );
    ( "incompatible valves",
      (* [Cluster.make] refuses incompatible valves, so the sequences of
         fresh copies are made to conflict after it. *)
      fun rng sol ->
        Option.bind (pick rng (multi_valves sol)) (fun (a : Pacor.Solution.routed_cluster) ->
          let cl = a.routed.Pacor.Routed.cluster in
          let copy (v : Valve.t) = { v with sequence = Array.copy v.sequence } in
          let copied = List.map copy cl.valves in
          match Cluster.make ~id:cl.id ~length_matched:cl.length_matched copied with
          | Ok ({ valves = v1 :: v2 :: _; _ } as cluster) when Array.length v1.sequence > 0 ->
            v1.sequence.(0) <- Activation.Open;
            v2.sequence.(0) <- Activation.Closed;
            Some (replace sol a (fun c -> with_cluster c cluster))
          | Ok _ | Error _ -> None) ) ]

(* [sol] itself, each mutation on its own, and a chain of two or three. *)
let check_against_oracle label rng (sol : Pacor.Solution.t) =
  same_verdict label sol;
  List.iter
    (fun (name, mutate) ->
       Option.iter
         (same_verdict
            ~invalid:(name <> own_crossing && name <> false_matched)
            (label ^ ": " ^ name))
         (mutate rng sol))
    mutations;
  let chain = List.init (2 + Random.State.int rng 2) (fun _ -> Option.get (pick rng mutations)) in
  ignore
    (List.fold_left
       (fun (names, sol) (name, mutate) ->
          match mutate rng sol with
          | None -> (names, sol)
          | Some m ->
            let names = names ^ " + " ^ name in
            same_verdict (label ^ ": " ^ names) m;
            (names, m))
       ("", sol) chain)

(* Every Table 1 design, Scaled1-3 (the larger scales route in seconds,
   not milliseconds) and the corpus. *)
let test_validate_designs () =
  let rng = Random.State.make [| 36 |] in
  List.iter
    (fun name ->
       check_against_oracle name rng
         (if name = "Chip2" then Lazy.force chip2 else route (Pacor_designs.Table1.load_exn name)))
    Pacor_designs.Table1.names;
  List.iter
    (fun s ->
       check_against_oracle (Pacor_designs.Scaled.name s) rng
         (route (Pacor_designs.Scaled.load_exn s)))
    [ 1; 2; 3 ];
  Sys.readdir corpus_dir |> Array.to_list |> List.sort String.compare
  |> List.iter (fun f ->
    if Filename.check_suffix f ".chip" then
      match Pacor.Problem_io.load ~path:(Filename.concat corpus_dir f) with
      | Ok problem -> Result.iter (check_against_oracle f rng) (Pacor.Engine.run problem)
      | Error _ -> ())

let prop_validate_oracle =
  QCheck.Test.make ~name:"validate = the two-pass oracle, message for message" ~count:60
    (QCheck.make
       ~print:(fun (problem, seed) ->
         Printf.sprintf "seed %d\n%s" seed
           (match problem with Ok p -> Pacor.Problem_io.to_string p | Error e -> e))
       QCheck.Gen.(pair (oneof [ Families.synthetic; Families.congested ]) int))
    (fun (problem, seed) ->
       match problem with
       | Error _ -> QCheck.assume_fail ()
       | Ok problem ->
         let rng = Random.State.make [| seed |] in
         let sol = route problem in
         check_against_oracle "engine" rng sol;
         let picked =
           List.filter_map
             (fun (c : Pacor.Solution.routed_cluster) ->
                if Random.State.bool rng then Some (id_of c) else None)
             sol.clusters
         in
         List.iter
           (fun (label, is_dirty) ->
              match Pacor_fault.Repair.reroute ~problem ~is_dirty sol with
              | Error _ -> ()
              | Ok r -> check_against_oracle label rng r.Pacor_fault.Repair.solution)
           [ ("all dirty", fun _ -> true); ("random subset", fun c -> List.mem (id_of c) picked) ];
         true)

(* ---------- Planted mutants ---------- *)

let rejects label (sol : Pacor.Solution.t) ~mentions =
  match Naive_check.check sol with
  | Ok () -> Alcotest.failf "%s: mutant accepted" label
  | Error es ->
    if not (List.exists (fun e -> contains e mentions) es) then
      Alcotest.failf "%s: no error mentions %S: %s" label mentions (String.concat "; " es)

let replace_cluster (sol : Pacor.Solution.t) id f =
  { sol with
    clusters =
      List.map
        (fun (c : Pacor.Solution.routed_cluster) ->
           if c.routed.Pacor.Routed.cluster.Cluster.id = id then f c else c)
        sol.clusters }

(* Flip one corner cell of a channel to the opposite corner of its unit
   square: the path stays 4-connected (a [Path.t] cannot be otherwise),
   but it now runs through a cell the cluster never claimed. *)
let test_mutant_shifted_cell () =
  let sol = Lazy.force chip2 in
  let corner pts =
    let a = Array.of_list pts in
    let rec find i =
      if i + 2 >= Array.length a then None
      else begin
        let (p : Point.t) = a.(i) and (q : Point.t) = a.(i + 2) in
        if p.x <> q.x && p.y <> q.y then Some i else find (i + 1)
      end
    in
    Option.map
      (fun i ->
         let p = a.(i) and m = a.(i + 1) and q = a.(i + 2) in
         a.(i + 1) <- Point.make (p.x + q.x - m.x) (p.y + q.y - m.y);
         Path.of_points (Array.to_list a))
      (find 0)
  in
  let target =
    List.find_map
      (fun (c : Pacor.Solution.routed_cluster) ->
         List.find_map
           (fun path -> Option.map (fun shifted -> (c, path, shifted)) (corner (Path.points path)))
           c.routed.Pacor.Routed.paths)
      sol.clusters
  in
  match target with
  | None -> Alcotest.fail "Chip2 has no channel with a corner"
  | Some (c, path, shifted) ->
    let mutant =
      replace_cluster sol (id_of c) (fun c ->
        let routed = c.routed in
        { c with
          routed =
            { routed with
              Pacor.Routed.paths =
                List.map (fun p -> if p == path then shifted else p) routed.Pacor.Routed.paths } })
    in
    rejects "shifted path cell" mutant ~mentions:"claims"

let test_mutant_flipped_matched () =
  let sol = Lazy.force chip2 in
  let c =
    match List.find_opt (fun (c : Pacor.Solution.routed_cluster) -> not c.matched) sol.clusters with
    | Some c -> c
    | None -> Alcotest.fail "Chip2 has no unmatched cluster"
  in
  let mutant = replace_cluster sol (id_of c) (fun c -> { c with matched = true }) in
  rejects "matched flag on an unmatched cluster" mutant ~mentions:"marked matched"

let test_mutant_duplicated_pin () =
  let sol = Lazy.force chip2 in
  match sol.clusters with
  | ({ escape = Some e; _ } : Pacor.Solution.routed_cluster) :: second :: _ ->
    let mutant =
      replace_cluster sol (id_of second) (fun c ->
        match c.escape with
        | Some e' -> { c with escape = Some { e' with Pacor_flow.Escape.pin = e.pin } }
        | None -> c)
    in
    rejects "duplicated pin" mutant ~mentions:"used by clusters"
  | _ -> Alcotest.fail "Chip2 needs two clusters, the first escaped"

let () =
  Alcotest.run "check"
    [ ( "naive checker",
        [ Alcotest.test_case "accepts Chip1, Chip2, S1-S5" `Quick test_designs;
          Alcotest.test_case "agrees with validate on the corpus" `Quick test_corpus;
          Alcotest.test_case "accepts a fault repair" `Quick test_repair;
          Alcotest.test_case "accepts a serve delta" `Quick test_serve_delta;
          Alcotest.test_case "engine unjails a walled-in pair" `Quick
            test_room_engine;
          Alcotest.test_case "repair quarantines a walled-in pair" `Quick
            test_room_repair;
          Alcotest.test_case "pins the jailer rung" `Quick test_pin_jailer;
          Alcotest.test_case "pins rematch's joint reroute" `Quick test_pin_rematch_joint;
          Alcotest.test_case "pins a failed joint reroute" `Quick test_pin_failed_joint;
          Alcotest.test_case "pins a 14x14 lattice" `Quick test_pin_lattice14;
          Alcotest.test_case "pins fpva-8x8" `Quick test_pin_lattice8;
          Alcotest.test_case "an untripped budget routes as none" `Quick
            test_untripped_budget;
          Alcotest.test_case "owner layer = union oracle on the rung pins" `Quick
            test_layers_rungs;
          Alcotest.test_case "repair of every cluster = the engine without rungs" `Quick
            test_repair_all_is_engine;
          Alcotest.test_case "rejects a shifted path cell" `Quick test_mutant_shifted_cell;
          Alcotest.test_case "rejects a flipped matched flag" `Quick
            test_mutant_flipped_matched;
          Alcotest.test_case "rejects a duplicated pin" `Quick test_mutant_duplicated_pin;
          Alcotest.test_case "validate = oracle on the named designs and mutants" `Quick
            test_validate_designs ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_repair_fuzz;
          QCheck_alcotest.to_alcotest prop_validate_oracle ] ) ]
