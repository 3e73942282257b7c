(* Direct tests of the individual flow stages (cluster routing, escape
   stage, detour stage, rendering) plus randomized whole-engine
   properties over synthetic instances. *)

open Pacor_geom
open Pacor_grid
open Pacor_valve
open Pacor

let seq s =
  match Activation.sequence_of_string s with
  | Ok x -> x
  | Error e -> Alcotest.failf "bad sequence: %s" e

let mk_valve id x y s = Valve.make ~id ~position:(Point.make x y) ~sequence:(seq s)

(* The grid's static map with [cells] blocked too. *)
let obstacles_of grid cells =
  let m = Routing_grid.fresh_work_map grid in
  Point.Set.iter (Obstacle_map.block m) cells;
  m

(* A workspace whose owner layer blocks [reserved] and holds [routed]. *)
let layer ?(reserved = Point.Set.empty) grid routed =
  let ws = Pacor_route.Workspace.create () in
  Pacor_route.Workspace.load_owners ws grid ~reserved;
  List.iter (Routed.occupy ws) routed;
  ws

(* ---------- Cluster_route ---------- *)

let test_cluster_route_pair_and_tree () =
  let grid = Routing_grid.create ~width:24 ~height:24 () in
  let a0 = mk_valve 0 4 4 "01" and a1 = mk_valve 1 4 12 "01" in
  let b0 = mk_valve 2 14 6 "10" and b1 = mk_valve 3 18 10 "10" and b2 = mk_valve 4 12 14 "10" in
  let pair = Cluster.make_exn ~id:0 ~length_matched:true [ a0; a1 ] in
  let tree = Cluster.make_exn ~id:1 ~length_matched:true [ b0; b1; b2 ] in
  let valve_cells =
    Point.Set.of_list (List.map (fun (v : Valve.t) -> v.position) [ a0; a1; b0; b1; b2 ])
  in
  let out =
    Cluster_route.route ~config:Config.default ~grid ~obstacles:(obstacles_of grid valve_cells)
      [ pair; tree ]
  in
  Alcotest.(check int) "both routed" 2 (List.length out.routed);
  Alcotest.(check int) "nothing demoted" 0 (List.length out.demoted);
  List.iter
    (fun (r : Routed.t) ->
       Alcotest.(check bool) "lm shape" true (Routed.is_length_matched_shape r);
       (* All valve positions belong to the claimed set. *)
       List.iter
         (fun p -> Alcotest.(check bool) "valve claimed" true (Point.Set.mem p r.claimed))
         (Cluster.positions r.cluster))
    out.routed;
  (* The two clusters must not overlap. *)
  (match out.routed with
   | [ r1; r2 ] ->
     Alcotest.(check bool) "clusters disjoint" true
       (Point.Set.is_empty (Point.Set.inter r1.claimed r2.claimed))
   | _ -> Alcotest.fail "expected two routed clusters")

let test_cluster_route_ignores_plain () =
  let grid = Routing_grid.create ~width:10 ~height:10 () in
  let v = mk_valve 0 4 4 "01" in
  let plain = Cluster.make_exn ~id:0 ~length_matched:false [ v ] in
  let out =
    Cluster_route.route ~config:Config.default ~grid
      ~obstacles:(obstacles_of grid (Point.Set.singleton v.position)) [ plain ]
  in
  Alcotest.(check int) "nothing to do" 0 (List.length out.routed)

let test_route_single_roundtrip () =
  let grid = Routing_grid.create ~width:20 ~height:20 () in
  let vs = [ mk_valve 0 4 4 "01"; mk_valve 1 4 12 "01"; mk_valve 2 12 8 "01" ] in
  let cluster = Cluster.make_exn ~id:0 ~length_matched:true vs in
  let valve_cells = Point.Set.of_list (List.map (fun (v : Valve.t) -> v.position) vs) in
  let usable p = Routing_grid.free grid p && not (Point.Set.mem p valve_cells) in
  match Cluster_route.candidates_for ~config:Config.default ~grid ~usable cluster with
  | [] -> Alcotest.fail "no candidates"
  | cand :: _ ->
    let obstacles = Routing_grid.fresh_work_map grid in
    Point.Set.iter (Obstacle_map.block obstacles) valve_cells;
    (match Cluster_route.route_single ~grid ~obstacles cluster cand with
     | None -> Alcotest.fail "route_single failed on an open grid"
     | Some r ->
       Alcotest.(check bool) "tree shape" true (Routed.is_length_matched_shape r);
       Alcotest.(check bool) "has internal channels" true (Routed.internal_length r > 0))

(* ---------- Escape_stage ---------- *)

let test_escape_stage_assigns_all () =
  let grid = Routing_grid.create ~width:14 ~height:14 () in
  let c0 = Cluster.make_exn ~id:0 ~length_matched:false [ mk_valve 0 4 4 "01" ] in
  let c1 = Cluster.make_exn ~id:1 ~length_matched:false [ mk_valve 1 9 9 "10" ] in
  let routed = [ Routed.make_singleton c0; Routed.make_singleton c1 ] in
  match
    Escape_stage.run ~workspace:(layer grid routed) ~grid ~pins:[ Point.make 0 4; Point.make 13 9 ]
      routed
  with
  | Error e -> Alcotest.failf "escape stage: %s" e
  | Ok out ->
    Alcotest.(check (list int)) "no failures" [] out.failed_clusters;
    Alcotest.(check int) "two assignments" 2 (List.length out.assignments);
    Alcotest.(check bool) "positive length" true (out.escape_length > 0)

let test_escape_stage_reports_failures () =
  let grid = Routing_grid.create ~width:14 ~height:14 () in
  let c0 = Cluster.make_exn ~id:7 ~length_matched:false [ mk_valve 0 4 4 "01" ] in
  let c1 = Cluster.make_exn ~id:8 ~length_matched:false [ mk_valve 1 9 9 "10" ] in
  let routed = [ Routed.make_singleton c0; Routed.make_singleton c1 ] in
  (* Only one pin for two clusters. *)
  match Escape_stage.run ~workspace:(layer grid routed) ~grid ~pins:[ Point.make 0 4 ] routed with
  | Error e -> Alcotest.failf "escape stage: %s" e
  | Ok out -> Alcotest.(check int) "one failure" 1 (List.length out.failed_clusters)

(* ---------- Cluster_route: every path on its own tree ---------- *)

(* The length-matched clusters of [problem], routed by [Cluster_route.route]
   against the owner layer as the engine loads it. *)
let route_lm (problem : Problem.t) =
  match Clustering.cluster ~seeds:problem.lm_clusters problem.valves with
  | Error e -> Alcotest.failf "clustering: %s" e
  | Ok partition ->
    let ws = Pacor_route.Workspace.create () in
    Pacor_route.Workspace.load_owners ws problem.grid ~reserved:(Problem.reserved_cells problem);
    Cluster_route.route ~workspace:ws ~config:Config.default ~grid:problem.grid
      ~obstacles:(Pacor_route.Workspace.occupied ws) partition.Clustering.clusters

(* The oracle reads a candidate's edges off its node list, a parent
   search per node, and shares nothing with the slot index in
   [Cluster_route.route]: each non-trivial edge (parent and child on
   different cells) keyed by its child id, with its two node cells. *)
let oracle_edges (c : Pacor_dme.Candidate.t) =
  List.filter_map
    (fun (n : Pacor_dme.Candidate.node) ->
       match n.parent with
       | None -> None
       | Some pid ->
         let parent = List.find (fun (m : Pacor_dme.Candidate.node) -> m.id = pid) c.nodes in
         if Point.equal parent.pos n.pos then None else Some (n.id, (parent.pos, n.pos)))
    c.nodes

(* [r]'s paths are its own tree's: one path per non-trivial edge, keyed
   by the edge's child id and running from the parent's cell to the
   child's; a pair's path runs from valve [a] to valve [b]. *)
let on_own_tree (r : Routed.t) =
  let joins path (src, dst) = Point.equal (Path.source path) src && Point.equal (Path.target path) dst in
  match r.shape with
  | Some (Routed.Tree { candidate; edge_paths }) ->
    let want = oracle_edges candidate in
    List.sort Int.compare (List.map fst edge_paths) = List.sort Int.compare (List.map fst want)
    && List.for_all (fun (child, path) -> joins path (List.assoc child want)) edge_paths
  | Some (Routed.Pair { path; a; b }) ->
    let pos id =
      (List.find (fun (v : Valve.t) -> v.id = id) r.cluster.Cluster.valves).Valve.position
    in
    joins path (pos a, pos b)
  | None -> false

let gen_lm_problem =
  QCheck.Gen.(
    let* seed = int_range 1 1_000_000 in
    let fpva =
      let* side = int_range 4 9 and* pitch = int_range 4 5 and* group = int_range 2 5 in
      return
        (Pacor_designs.Fpva.generate
           { Pacor_designs.Fpva.name = "prop"; rows = side; cols = side; pitch; group;
             seed = Int64.of_int seed; delta = 2 })
    in
    let synthetic =
      let* trees = list_size (int_range 2 4) (int_range 3 5) and* side = int_range 30 40 in
      return
        (Pacor_designs.Synthetic.generate
           { Pacor_designs.Synthetic.name = "prop"; width = side; height = side;
             obstacle_cells = side; lm_cluster_sizes = trees; singleton_valves = 2;
             pin_count = 24; seed = Int64.of_int seed; delta = 2 })
    in
    oneof [ fpva; synthetic ])

let prop_paths_on_own_tree =
  QCheck.Test.make ~name:"cluster routing: every path on its own tree" ~count:60
    (QCheck.make gen_lm_problem) (function
      | Error _ -> QCheck.assume_fail ()
      | Ok problem ->
        let out = route_lm problem in
        List.for_all on_own_tree out.routed)

(* One of the lattice-batch workload's lattices: 28 seven-valve trees in
   one negotiation. *)
let test_lattice_paths_on_own_tree () =
  let out =
    route_lm
      (Pacor_designs.Fpva.generate_exn
         { Pacor_designs.Fpva.name = "fpva14"; rows = 14; cols = 14; pitch = 5; group = 7;
           seed = 322205L; delta = 2 })
  in
  Alcotest.(check int) "28 trees routed" 28 (List.length out.routed);
  List.iter
    (fun (r : Routed.t) ->
       Alcotest.(check bool)
         (Printf.sprintf "cluster %d on its own tree" r.cluster.Cluster.id)
         true (on_own_tree r))
    out.routed

(* ---------- Detour_stage ---------- *)

(* Build a routed tree cluster by running the real pipeline pieces. *)
let routed_tree_cluster grid vs =
  let cluster = Cluster.make_exn ~id:0 ~length_matched:true vs in
  let valve_cells = Point.Set.of_list (List.map (fun (v : Valve.t) -> v.position) vs) in
  let out =
    Cluster_route.route ~config:Config.default ~grid ~obstacles:(obstacles_of grid valve_cells)
      [ cluster ]
  in
  match out.routed with
  | [ r ] -> r
  | _ -> Alcotest.fail "cluster did not route"

let test_detour_stage_fixes_imbalance () =
  let grid = Routing_grid.create ~width:24 ~height:24 () in
  let r =
    routed_tree_cluster grid
      [ mk_valve 0 4 4 "01"; mk_valve 1 4 13 "01"; mk_valve 2 13 8 "01" ]
  in
  let out = Detour_stage.run ~workspace:(layer grid [ r ]) ~grid ~delta:1 ~theta:10 [ r ] in
  (match out.updated with
   | [ r' ] ->
     (match Routed.spread r' with
      | Some s -> Alcotest.(check bool) "spread within 1" true (s <= 1)
      | None -> Alcotest.fail "expected a spread")
   | _ -> Alcotest.fail "expected one cluster back");
  Alcotest.(check int) "reported matched" 1 (List.length out.matched_ids)

let test_detour_stage_skips_plain () =
  let grid = Routing_grid.create ~width:10 ~height:10 () in
  let c = Cluster.make_exn ~id:3 ~length_matched:false [ mk_valve 0 4 4 "01" ] in
  let r = Routed.make_singleton c in
  let out = Detour_stage.run ~workspace:(layer grid [ r ]) ~grid ~delta:1 ~theta:10 [ r ] in
  Alcotest.(check int) "no matched ids" 0 (List.length out.matched_ids);
  Alcotest.(check int) "no unmatched ids" 0 (List.length out.unmatched_ids)

let test_detour_one_restores_on_failure () =
  (* Box the tree in so no detour space exists: the result must be the
     original route, reported unmatched. *)
  let grid = Routing_grid.create ~width:24 ~height:24 () in
  let r =
    routed_tree_cluster grid
      [ mk_valve 0 4 4 "01"; mk_valve 1 4 13 "01"; mk_valve 2 13 8 "01" ]
  in
  match Routed.spread r with
  | Some s when s > 1 ->
    (* Block every free cell: detouring is impossible. *)
    let blocked = ref Point.Set.empty in
    for x = 0 to 23 do
      for y = 0 to 23 do
        let p = Point.make x y in
        if not (Point.Set.mem p r.claimed) then blocked := Point.Set.add p !blocked
      done
    done;
    let workspace = layer ~reserved:!blocked grid [ r ] in
    let r', ok = Detour_stage.detour_one ~workspace ~grid ~delta:1 ~theta:10 r in
    Alcotest.(check bool) "failed" false ok;
    Alcotest.(check bool) "identical claims (restored)" true
      (Point.Set.equal r'.Routed.claimed r.Routed.claimed)
  | Some _ | None ->
    (* Already matched without detours: nothing to assert here. *)
    ()

(* Trees of equal spread are processed in input order, after every tree
   of a larger spread. With [delta] above every spread no tree is
   detoured, and [matched_ids] lists the trees in processing order. *)
let test_detour_stage_equal_spreads_in_input_order () =
  let problem =
    Pacor_designs.Fpva.generate_exn
      { Pacor_designs.Fpva.name = "fpva10"; rows = 10; cols = 10; pitch = 5; group = 4;
        seed = 1L; delta = 2 }
  in
  let out = route_lm problem in
  let spread (r : Routed.t) = Option.get (Routed.spread r) in
  let spreads = List.sort_uniq Int.compare (List.map spread out.routed) in
  (* The lattice has tie groups and more than one spread: both halves of
     the order are exercised. *)
  Alcotest.(check bool) "several spreads" true (List.length spreads >= 2);
  Alcotest.(check bool) "a tie of three" true
    (List.exists
       (fun s -> List.length (List.filter (fun r -> spread r = s) out.routed) >= 3)
       spreads);
  (* Any fixed permutation of the routing order will do; this one
     interleaves the two halves. *)
  let input =
    let a = Array.of_list out.routed in
    let n = Array.length a in
    List.init n (fun i -> a.(if i mod 2 = 0 then i / 2 else n - 1 - (i / 2)))
  in
  let id (r : Routed.t) = r.cluster.Cluster.id in
  let want =
    List.concat_map
      (fun s -> List.filter_map (fun r -> if spread r = s then Some (id r) else None) input)
      (List.rev spreads)
  in
  let delta = 1 + List.fold_left max 0 spreads in
  let got =
    Detour_stage.run ~workspace:(layer problem.Problem.grid input) ~grid:problem.Problem.grid
      ~delta ~theta:10 input
  in
  Alcotest.(check (list int)) "processing order" want got.matched_ids;
  Alcotest.(check (list int)) "results in input order" (List.map id input)
    (List.map id got.updated)

(* ---------- Render ---------- *)

let small_problem () =
  let a0 = mk_valve 0 4 4 "01" and a1 = mk_valve 1 4 10 "01" in
  let grid = Routing_grid.create ~width:14 ~height:14 ~obstacles:[ Rect.make ~x0:8 ~y0:8 ~x1:9 ~y1:9 ] () in
  Problem.create_exn ~grid ~valves:[ a0; a1 ]
    ~lm_clusters:[ Cluster.make_exn ~id:0 ~length_matched:true [ a0; a1 ] ]
    ~pins:[ Point.make 0 4; Point.make 0 10; Point.make 13 7 ] ()

let test_render_problem () =
  let p = small_problem () in
  let s = Render.problem p in
  Alcotest.(check int) "grid height lines" 14
    (List.length (String.split_on_char '\n' (String.trim s)));
  Alcotest.(check bool) "has valves" true (String.contains s 'V');
  Alcotest.(check bool) "has pins" true (String.contains s 'P');
  Alcotest.(check bool) "has obstacles" true (String.contains s '#')

let test_render_solution () =
  let p = small_problem () in
  match Engine.run p with
  | Error e -> Alcotest.failf "engine: %s" e.message
  | Ok sol ->
    let s = Render.solution sol in
    Alcotest.(check bool) "used pin marked" true (String.contains s '@');
    Alcotest.(check bool) "channel cells drawn" true (String.contains s '0')


let test_svg_render () =
  let p = small_problem () in
  match Engine.run p with
  | Error e -> Alcotest.failf "engine: %s" e.message
  | Ok sol ->
    let svg = Svg.solution sol in
    Alcotest.(check bool) "solution svg has polylines" true
      (let rec contains i =
         i + 9 <= String.length svg
         && (String.sub svg i 9 = "<polyline" || contains (i + 1))
       in
       contains 0);
    Alcotest.(check bool) "well formed" true
      (String.length svg > 7
       && String.sub svg 0 4 = "<svg"
       && String.sub svg (String.length svg - 7) 6 = "</svg>")

(* ---------- Sweep / with_delta ---------- *)

let test_with_delta () =
  let p = small_problem () in
  (match Problem.with_delta p 3 with
   | Ok p' -> Alcotest.(check int) "delta updated" 3 p'.Problem.delta
   | Error e -> Alcotest.failf "unexpected: %s" e);
  Alcotest.(check bool) "negative rejected" true (Result.is_error (Problem.with_delta p (-1)))

let test_sweep_monotone_matching () =
  (* Matched clusters can only improve (weakly) as delta grows. *)
  match Pacor_designs.Sweep.run ~deltas:[ 0; 1; 2; 4 ] (small_problem ()) with
  | Error e -> Alcotest.failf "sweep: %s" e
  | Ok samples ->
    let matched = List.map (fun (s : Pacor_designs.Sweep.sample) -> s.matched) samples in
    let rec non_decreasing = function
      | a :: (b :: _ as rest) -> a <= b && non_decreasing rest
      | _ -> true
    in
    Alcotest.(check bool) "weakly increasing" true (non_decreasing matched);
    List.iter
      (fun (s : Pacor_designs.Sweep.sample) ->
         Alcotest.(check (float 1e-9)) "always completes" 1.0 s.completion)
      samples

(* ---------- Engine: stage timings, rematch regression ---------- *)

let test_stage_timings_present () =
  match Engine.run (small_problem ()) with
  | Error e -> Alcotest.failf "engine: %s" e.message
  | Ok sol ->
    let stages = List.map fst sol.Solution.stage_seconds in
    List.iter
      (fun expected ->
         Alcotest.(check bool) (expected ^ " timed") true (List.mem expected stages))
      [ "clustering"; "lm-routing"; "plain-routing"; "escape"; "detour"; "rematch" ];
    List.iter
      (fun (_, t) -> Alcotest.(check bool) "non-negative" true (t >= 0.0))
      sol.Solution.stage_seconds

let test_rematch_rescues_corridor_cluster () =
  (* Regression for the rotary-mixer scenario: a sieve triple whose first
     candidate leaves no escape exit gets rescued by an alternative
     candidate instead of being demoted. *)
  let ring_obstacles =
    [ Rect.make ~x0:9 ~y0:6 ~x1:16 ~y1:6; Rect.make ~x0:9 ~y0:14 ~x1:16 ~y1:14 ]
  in
  let grid = Routing_grid.create ~width:26 ~height:20 ~obstacles:ring_obstacles () in
  let sieves =
    [ mk_valve 0 11 10 "10"; mk_valve 1 13 10 "10"; mk_valve 2 15 10 "10" ]
  in
  let cluster = Cluster.make_exn ~id:0 ~length_matched:true sieves in
  let pins = [ Point.make 0 10; Point.make 25 10; Point.make 12 0; Point.make 12 19 ] in
  let p = Problem.create_exn ~grid ~valves:sieves ~lm_clusters:[ cluster ] ~pins () in
  match Engine.run p with
  | Error e -> Alcotest.failf "engine: %s" e.message
  | Ok sol ->
    let stats = Solution.stats sol in
    Alcotest.(check (float 1e-9)) "routes" 1.0 stats.completion;
    Alcotest.(check int) "matched" 1 stats.matched_clusters

(* ---------- Whole-engine property over random synthetic instances ---------- *)

let arb_spec =
  QCheck.make
    QCheck.Gen.(
      let* seed = int_range 1 10_000 in
      let* n_pairs = int_range 0 2 in
      let* n_triples = int_range 0 1 in
      let* singles = int_range 1 3 in
      return
        {
          Pacor_designs.Synthetic.name = "prop";
          width = 26;
          height = 26;
          obstacle_cells = 10;
          lm_cluster_sizes =
            List.init n_pairs (fun _ -> 2) @ List.init n_triples (fun _ -> 3);
          singleton_valves = singles;
          pin_count = 30;
          seed = Int64.of_int seed;
          delta = 1;
        })

let prop_engine_routes_random_instances =
  QCheck.Test.make ~name:"engine completes and validates on random instances" ~count:25
    arb_spec (fun spec ->
      match Pacor_designs.Synthetic.generate spec with
      | Error _ -> QCheck.assume_fail ()
      | Ok problem ->
        (match Engine.run problem with
         | Error _ -> false
         | Ok sol ->
           let stats = Solution.stats sol in
           stats.completion = 1.0 && Solution.validate sol = Ok ()))

let prop_variants_all_valid =
  QCheck.Test.make ~name:"all variants validate on random instances" ~count:10 arb_spec
    (fun spec ->
       match Pacor_designs.Synthetic.generate spec with
       | Error _ -> QCheck.assume_fail ()
       | Ok problem ->
         List.for_all
           (fun variant ->
              match Engine.run ~config:(Config.make ~variant ()) problem with
              | Error _ -> false
              | Ok sol -> Solution.validate sol = Ok ())
           [ Config.Full; Config.Without_selection; Config.Detour_first ])

(* ---------- Optimality certificate ---------- *)

(* A lower-bound oracle for the flat engine: a solution that routed every
   valve, matched every multi-valve cluster, ran every stage to completion,
   keeps each internal channel at its endpoints' Manhattan distance and
   each escape at the distance from the nearest pin to the nearest channel
   box cannot be beaten on (routed valves, matched clusters, total length).
   A channel pushed [d] cells outside its box to approach a pin pays at
   least [2d] internal length for at most [d] of escape gain, so the escape
   bound holds for non-minimal channels too. *)
let rect_distance (p : Point.t) (r : Rect.t) =
  let dx = max 0 (max (r.Rect.x0 - p.x) (p.x - r.Rect.x1)) in
  let dy = max 0 (max (r.Rect.y0 - p.y) (p.y - r.Rect.y1)) in
  dx + dy

let escape_lb ~pins (r : Routed.t) =
  let rects =
    List.map (fun p -> Rect.of_points (Path.source p) (Path.target p)) r.Routed.paths
    @ List.map (fun v -> Rect.of_points v v) (Cluster.positions r.Routed.cluster)
  in
  List.fold_left
    (fun best pin ->
      List.fold_left (fun best rect -> min best (rect_distance pin rect)) best rects)
    max_int pins
  |> max 1

let certify_failure (sol : Solution.t) =
  let pins = sol.Solution.problem.Problem.pins in
  let clusters = sol.Solution.clusters in
  if sol.Solution.budget_exhausted <> None then Some "budget exhausted"
  else if
    not (List.for_all (fun (_, o) -> o = Solution.Completed) sol.Solution.stage_outcomes)
  then Some "a stage degraded"
  else if not (List.for_all (fun (c : Solution.routed_cluster) -> c.escape <> None) clusters)
  then Some "a cluster failed to escape"
  else if
    List.length
      (List.filter
         (fun (c : Solution.routed_cluster) ->
           Routed.is_length_matched_shape c.routed && c.matched)
         clusters)
    <> sol.Solution.initial_multi_clusters
  then Some "a multi-valve cluster was demoted or left unmatched"
  else if
    not
      (List.for_all
         (fun (c : Solution.routed_cluster) ->
           List.for_all
             (fun p -> Path.length p = Point.manhattan (Path.source p) (Path.target p))
             c.routed.Routed.paths)
         clusters)
  then Some "an internal channel exceeds its Manhattan minimum"
  else if
    not
      (List.for_all
         (fun (c : Solution.routed_cluster) ->
           match c.escape with
           | None -> false
           | Some e -> Path.length e.Pacor_flow.Escape.path <= escape_lb ~pins c.routed)
         clusters)
  then Some "an escape exceeds its pin-to-channel-box lower bound"
  else None

let certificate_problem ~obstacles =
  let grid = Routing_grid.create ~width:13 ~height:13 ~obstacles () in
  let v = mk_valve 0 6 6 "01" in
  Problem.create_exn ~grid ~valves:[ v ] ~lm_clusters:[] ~pins:[ Point.make 6 0 ] ()

let test_certificate_straight_escape () =
  match Engine.run (certificate_problem ~obstacles:[]) with
  | Error e -> Alcotest.failf "engine: %s" e.message
  | Ok sol ->
    Alcotest.(check (option string)) "straight escape certifies" None (certify_failure sol);
    Alcotest.(check bool) "validates" true (Solution.validate sol = Ok ())

let test_certificate_detoured_escape_fails () =
  (* A wall above the valve forces the escape around: its length exceeds
     the pin-to-channel-box lower bound, so the certificate must refuse. *)
  let obstacles = [ Rect.of_points (Point.make 4 3) (Point.make 8 3) ] in
  match Engine.run (certificate_problem ~obstacles) with
  | Error e -> Alcotest.failf "engine: %s" e.message
  | Ok sol ->
    Alcotest.(check (option string)) "detoured escape does not certify"
      (Some "an escape exceeds its pin-to-channel-box lower bound") (certify_failure sol);
    Alcotest.(check bool) "validates" true (Solution.validate sol = Ok ())

(* ---------- Mask vs set predicates (refinement equivalence) ---------- *)

(* [Escape_stage.single], [Detour_stage.detour_one] and [Detour_stage.run]
   read the workspace's owner layer and a byte mask leased from it;
   test/refine_oracle.ml keeps their [Point.Set]-predicate versions. Both
   must return identical routes. One workspace serves every layer-backed
   call, so its leased mask slot always holds the previous call's
   contents. *)

let mask_ws = Pacor_route.Workspace.create ()

let route_key (r : Routed.t) =
  let legs =
    match r.shape with
    | Some (Routed.Tree { edge_paths; _ }) ->
      List.map (fun (c, p) -> (c, Path.points p)) edge_paths
    | Some (Routed.Pair _) | None -> []
  in
  (r.cluster.Cluster.id, Point.Set.elements r.claimed, legs)

let escape_key = function
  | None -> None
  | Some (e : Pacor_flow.Escape.routed) -> Some (e.start_cell, e.pin, Path.points e.path)

let claims rs =
  List.fold_left (fun acc (r : Routed.t) -> Point.Set.union acc r.claimed) Point.Set.empty rs

let path_cells = function
  | None -> Point.Set.empty
  | Some (e : Pacor_flow.Escape.routed) -> Point.Set.of_list (Path.points e.path)

(* Compare all three stages on [routed] (with [escapes], one per route)
   under [blocked_base] (valve and pin cells): one [run], [detour_one] on
   every tree and [single] on every [stride]-th cluster (each [single] is
   a real search, so the named designs sample them). Each layer-backed
   call gets a freshly loaded layer holding what the oracle blocks.
   Returns how many calls were compared. *)
let check_refinement ?(stride = 1) ~label ~grid ~pins ~delta ~blocked_base routed escapes =
  let theta = Config.default.Config.theta in
  let assignments = List.map2 (fun routed escape -> { Escape_stage.routed; escape }) routed escapes in
  let load ~reserved assignments =
    Pacor_route.Workspace.load_owners mask_ws grid ~reserved;
    List.iter (Escape_stage.occupy mask_ws) assignments
  in
  let escape_cells = List.fold_left (fun acc e -> Point.Set.union acc (path_cells e)) Point.Set.empty escapes in
  let blocked = Point.Set.union blocked_base (Point.Set.union (claims routed) escape_cells) in
  load ~reserved:blocked_base assignments;
  let a = Detour_stage.run ~workspace:mask_ws ~grid ~delta ~theta routed in
  let b = Refine_oracle.run ~grid ~delta ~theta ~blocked routed in
  Alcotest.(check bool) (label ^ ": run routes") true
    (List.map route_key a.updated = List.map route_key b.updated);
  Alcotest.(check (list int)) (label ^ ": run matched") b.matched_ids a.matched_ids;
  Alcotest.(check (list int)) (label ^ ": run unmatched") b.unmatched_ids a.unmatched_ids;
  let calls = ref 1 in
  List.iteri
    (fun k (r : Routed.t) ->
      let others = List.filteri (fun j _ -> j <> k) routed in
      let others_escapes = List.filteri (fun j _ -> j <> k) escapes in
      let forbidden =
        List.fold_left
          (fun acc e -> Point.Set.union acc (path_cells e))
          (claims others) others_escapes
      in
      let used_pins =
        List.filter_map (Option.map (fun (e : Pacor_flow.Escape.routed) -> e.pin)) others_escapes
      in
      let free_pins = List.filter (fun p -> not (List.exists (Point.equal p) used_pins)) pins in
      if k mod stride = 0 then begin
        let claimed = Point.Set.union forbidden r.claimed in
        let start_cells = Routed.start_cells r in
        (* The cluster's channels, without its escape. *)
        load ~reserved:Point.Set.empty
          (List.mapi (fun j a -> if j = k then { a with Escape_stage.escape = None } else a)
             assignments);
        let e = Escape_stage.single ~workspace:mask_ws ~grid ~pins:free_pins ~start_cells () in
        let e' = Refine_oracle.single ~grid ~claimed ~pins:free_pins ~start_cells () in
        incr calls;
        Alcotest.(check bool) (Printf.sprintf "%s: single %d" label k) true
          (escape_key e = escape_key e')
      end;
      match r.shape with
      | Some (Routed.Tree _) ->
        let blocked =
          Point.Set.union blocked_base (Point.Set.union forbidden (path_cells (List.nth escapes k)))
        in
        load ~reserved:blocked_base assignments;
        let x, ok = Detour_stage.detour_one ~workspace:mask_ws ~grid ~delta ~theta r in
        let y, ok' = Refine_oracle.detour_one ~grid ~delta ~theta ~blocked r in
        incr calls;
        Alcotest.(check bool) (Printf.sprintf "%s: detour_one %d" label k) true
          (route_key x = route_key y && ok = ok')
      | Some (Routed.Pair _) | None -> ())
    routed;
  !calls

(* The engine's inputs to the refinement stages on a named design: its
   length-matched routes and their global escapes. *)
let check_design label (problem : Problem.t) =
  let grid = problem.Problem.grid in
  let blocked_base =
    Point.Set.of_list
      (problem.Problem.pins @ List.map (fun (v : Valve.t) -> v.position) problem.Problem.valves)
  in
  let clusters =
    match Clustering.cluster ~seeds:problem.Problem.lm_clusters problem.Problem.valves with
    | Ok p -> p.Clustering.clusters
    | Error e -> Alcotest.failf "%s: clustering: %s" label e
  in
  let lm =
    Cluster_route.route ~config:Config.default ~grid ~obstacles:(obstacles_of grid blocked_base)
      clusters
  in
  let routed = lm.Cluster_route.routed in
  Pacor_route.Workspace.load_owners mask_ws grid ~reserved:blocked_base;
  List.iter (Routed.occupy mask_ws) routed;
  match Escape_stage.run ~workspace:mask_ws ~grid ~pins:problem.Problem.pins routed with
  | Error e -> Alcotest.failf "%s: escape: %s" label e
  | Ok out ->
    let escapes = List.map (fun (a : Escape_stage.assignment) -> a.escape) out.assignments in
    let calls =
      check_refinement ~stride:4 ~label ~grid ~pins:problem.Problem.pins
        ~delta:problem.Problem.delta ~blocked_base routed escapes
    in
    Alcotest.(check bool) (label ^ ": compared a quarter of the clusters or more") true
      (4 * calls > List.length routed)

let test_refinement_masks_chip1 () =
  check_design "Chip1" (Pacor_designs.Table1.load_exn "Chip1")

let test_refinement_masks_scaled2 () =
  check_design "Scaled2" (Pacor_designs.Scaled.load_exn 2)

let prop_refinement_masks_random_trees =
  (* Two random tree clusters routed together on a small grid, with
     scattered blockages: the blockages squeeze the detours, so the bump
     insertion and the bounded-search fallback both run, and the second
     cluster's detours see the first one's updated channels. *)
  let gen =
    QCheck.Gen.(
      let valve =
        let* x = int_range 2 17 and* y = int_range 2 17 in
        return (x, y)
      in
      let* n1 = int_range 3 4 and* n2 = int_range 3 4 in
      let* valves = list_size (return (n1 + n2)) valve in
      let* nblock = int_range 0 60 in
      let* blocks =
        list_size (return nblock)
          (let* x = int_range 1 18 and* y = int_range 1 18 in
           return (Point.make x y))
      in
      let* delta = int_range 0 2 in
      return (n1, valves, blocks, delta))
  in
  QCheck.Test.make ~name:"detour and single escape: mask = set predicate" ~count:100
    (QCheck.make gen) (fun (n1, valves, blocks, delta) ->
      QCheck.assume (List.length (List.sort_uniq compare valves) = List.length valves);
      let grid = Routing_grid.create ~width:20 ~height:20 () in
      let vs = List.mapi (fun i (x, y) -> mk_valve i x y "01") valves in
      let c1 = Cluster.make_exn ~id:0 ~length_matched:true (List.filteri (fun i _ -> i < n1) vs) in
      let c2 = Cluster.make_exn ~id:1 ~length_matched:true (List.filteri (fun i _ -> i >= n1) vs) in
      let valve_cells = Point.Set.of_list (List.map (fun (v : Valve.t) -> v.position) vs) in
      let routed =
        (Cluster_route.route ~config:Config.default ~grid
           ~obstacles:(obstacles_of grid valve_cells) [ c1; c2 ])
          .Cluster_route.routed
      in
      QCheck.assume (routed <> []);
      let own = claims routed in
      let blocked_base =
        List.fold_left
          (fun acc p -> if Point.Set.mem p own then acc else Point.Set.add p acc)
          valve_cells blocks
      in
      let pins = [ Point.make 0 3; Point.make 19 11; Point.make 7 0; Point.make 12 19 ] in
      ignore
        (check_refinement ~label:"random" ~grid ~pins ~delta ~blocked_base routed
           (List.map (fun _ -> None) routed));
      true)

(* ---------- Goal-directed single escapes ---------- *)

(* A random subset of the boundary ring: [keep] in 1..8 keeps each ring
   cell with probability keep/8, so sparse draws leave whole sides (and
   the corners) empty and dense ones fill them. *)
let gen_ring_pins ~width ~height =
  QCheck.Gen.(
    let ring = Routing_grid.boundary_points (Routing_grid.create ~width ~height ()) in
    let* keep = int_range 1 8 in
    let* bits = list_repeat (List.length ring) (int_range 0 7) in
    return (List.filteri (fun k _ -> List.nth bits k < keep) ring))

let prop_nearest_pin_transform =
  let gen =
    QCheck.Gen.(
      let* width = int_range 1 14 and* height = int_range 1 14 in
      let* pins = gen_ring_pins ~width ~height in
      return (width, height, pins))
  in
  QCheck.Test.make ~name:"nearest-pin transform = brute-force minimum" ~count:300
    (QCheck.make gen) (fun (width, height, pins) ->
      QCheck.assume (pins <> []);
      let grid = Routing_grid.create ~width ~height () in
      match Escape_stage.nearest_pin_steps ~grid pins with
      | None -> QCheck.Test.fail_report "ring pins must give a transform"
      | Some h ->
        for i = 0 to Routing_grid.cells grid - 1 do
          let want = Refine_oracle.nearest_pin_brute ~grid pins i in
          if h i <> want then
            QCheck.Test.fail_reportf "%dx%d cell %d: transform %d, brute force %d" width
              height i (h i) want
        done;
        (* A pin off the ring falls back to the box heuristic. *)
        (width < 3 || height < 3
         || Escape_stage.nearest_pin_steps ~grid (Point.make 1 1 :: pins) = None))

let prop_single_escape_shortest =
  let gen =
    QCheck.Gen.(
      let* width = int_range 4 18 and* height = int_range 4 18 in
      let* pins = gen_ring_pins ~width ~height in
      let cell = pair (int_range 1 (width - 2)) (int_range 1 (height - 2)) in
      let* starts = list_size (int_range 1 3) cell in
      let* blocks = list_size (int_range 0 (width * height / 3)) cell in
      let* walls =
        list_size (int_range 0 3)
          (let* x = int_range 1 (width - 2) and* y = int_range 1 (height - 2) in
           let* len = int_range 1 (max 1 (height / 2)) in
           return (Rect.make ~x0:x ~y0:y ~x1:x ~y1:(min (height - 2) (y + len))))
      in
      return (width, height, pins, starts, blocks, walls))
  in
  QCheck.Test.make ~name:"goal-directed single escape is shortest" ~count:300
    (QCheck.make gen) (fun (width, height, pins, starts, blocks, walls) ->
      QCheck.assume (pins <> []);
      let grid = Routing_grid.create ~width ~height ~obstacles:walls () in
      let pt (x, y) = Point.make x y in
      let start_cells = List.map pt starts in
      let claimed = Point.Set.of_list (List.map pt blocks) in
      Pacor_route.Workspace.load_owners mask_ws grid ~reserved:Point.Set.empty;
      Point.Set.iter (Pacor_route.Workspace.occupy mask_ws ~id:0) claimed;
      let got = Escape_stage.single ~workspace:mask_ws ~grid ~pins ~start_cells () in
      let usable i =
        let p = Routing_grid.point_of_index grid i in
        Routing_grid.free grid p
        && (not (Point.Set.mem p claimed))
        && not (Routing_grid.on_boundary grid p)
      in
      let dijkstra =
        Pacor_route.Astar.search ~heuristic:(fun _ -> 0) ~grid
          ~spec:{ Pacor_route.Astar.usable; extra_cost = (fun _ -> 0) }
          ~sources:start_cells ~targets:pins ()
      in
      match got, dijkstra with
      | None, None -> true
      | Some e, Some p -> Path.length e.Pacor_flow.Escape.path = Path.length p
      | Some _, None | None, Some _ -> false)

let prop_single_alternating_grids =
  (* [Escape_stage.single] reads its claims from the workspace's owner
     layer. One fresh workspace serves six calls that alternate between
     two grids, of the same size half of the time, each call with its own
     claims loaded into the layer: every escape must match the
     set-predicate oracle. *)
  let gen =
    QCheck.Gen.(
      let* width = int_range 4 14 and* height = int_range 4 14 in
      let* same_size = bool in
      let* width' = if same_size then return width else int_range 4 14 in
      let* height' = if same_size then return height else int_range 4 14 in
      let side w h =
        let cell = pair (int_range 1 (w - 2)) (int_range 1 (h - 2)) in
        let* obstacles = list_size (int_range 0 (w * h / 4)) cell in
        let* pins = gen_ring_pins ~width:w ~height:h in
        let* calls =
          list_repeat 3
            (let* starts = list_size (int_range 1 3) cell in
             let* claims = list_size (int_range 0 (w * h / 3)) cell in
             return (starts, claims))
        in
        return (w, h, obstacles, pins, calls)
      in
      pair (side width height) (side width' height'))
  in
  QCheck.Test.make ~name:"single escape: one workspace across alternating grids" ~count:200
    (QCheck.make gen) (fun (a, b) ->
      let ws = Pacor_route.Workspace.create () in
      let pt (x, y) = Point.make x y in
      let setup (w, h, obstacles, pins, calls) =
        let obstacles = List.map (fun (x, y) -> Rect.make ~x0:x ~y0:y ~x1:x ~y1:y) obstacles in
        (Routing_grid.create ~width:w ~height:h ~obstacles (), pins, calls)
      in
      let ga, pa, ca = setup a and gb, pb, cb = setup b in
      let call (grid, pins, (starts, claims)) =
        let start_cells = List.map pt starts in
        let claimed = Point.Set.of_list (List.map pt (starts @ claims)) in
        Pacor_route.Workspace.load_owners ws grid ~reserved:Point.Set.empty;
        Point.Set.iter (Pacor_route.Workspace.occupy ws ~id:0) claimed;
        let got = Escape_stage.single ~workspace:ws ~grid ~pins ~start_cells () in
        let want = Refine_oracle.single ~grid ~claimed ~pins ~start_cells () in
        if escape_key got <> escape_key want then
          QCheck.Test.fail_report "escape differs from the set-predicate oracle"
      in
      List.iter2
        (fun x y -> call (ga, pa, x); call (gb, pb, y))
        ca cb;
      true)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_engine_routes_random_instances; prop_variants_all_valid; prop_paths_on_own_tree;
      prop_refinement_masks_random_trees; prop_nearest_pin_transform;
      prop_single_escape_shortest; prop_single_alternating_grids ]

let () =
  Alcotest.run "stages"
    [ ( "cluster_route",
        [ Alcotest.test_case "pair and tree" `Quick test_cluster_route_pair_and_tree;
          Alcotest.test_case "ignores plain" `Quick test_cluster_route_ignores_plain;
          Alcotest.test_case "route_single" `Quick test_route_single_roundtrip;
          Alcotest.test_case "paths on their own tree, 14x14 lattice" `Quick
            test_lattice_paths_on_own_tree ] );
      ( "escape_stage",
        [ Alcotest.test_case "assigns all" `Quick test_escape_stage_assigns_all;
          Alcotest.test_case "reports failures" `Quick test_escape_stage_reports_failures ] );
      ( "detour_stage",
        [ Alcotest.test_case "fixes imbalance" `Quick test_detour_stage_fixes_imbalance;
          Alcotest.test_case "skips plain" `Quick test_detour_stage_skips_plain;
          Alcotest.test_case "restores on failure" `Quick test_detour_one_restores_on_failure;
          Alcotest.test_case "equal spreads in input order" `Quick
            test_detour_stage_equal_spreads_in_input_order;
          Alcotest.test_case "mask = set predicate on Chip1" `Quick
            test_refinement_masks_chip1;
          Alcotest.test_case "mask = set predicate on Scaled2" `Quick
            test_refinement_masks_scaled2 ] );
      ( "render",
        [ Alcotest.test_case "problem" `Quick test_render_problem;
          Alcotest.test_case "solution" `Quick test_render_solution;
          Alcotest.test_case "svg" `Quick test_svg_render ] );
      ( "sweep",
        [ Alcotest.test_case "with_delta" `Quick test_with_delta;
          Alcotest.test_case "monotone matching" `Quick test_sweep_monotone_matching ] );
      ( "engine",
        [ Alcotest.test_case "stage timings" `Quick test_stage_timings_present;
          Alcotest.test_case "rematch rescues corridor cluster" `Quick
            test_rematch_rescues_corridor_cluster ] );
      ( "certificate",
        [ Alcotest.test_case "straight escape certifies" `Quick test_certificate_straight_escape;
          Alcotest.test_case "detoured escape refuses" `Quick
            test_certificate_detoured_escape_fails ] );
      ("properties", qcheck_cases) ]
