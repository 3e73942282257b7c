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
    Cluster_route.route ~config:Config.default ~grid ~valve_cells [ pair; tree ]
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
      ~valve_cells:(Point.Set.singleton v.position) [ plain ]
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
    (match Cluster_route.route_single ~config:Config.default ~grid ~obstacles cluster cand with
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
  match Escape_stage.run ~grid ~pins:[ Point.make 0 4; Point.make 13 9 ] routed with
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
  match Escape_stage.run ~grid ~pins:[ Point.make 0 4 ] routed with
  | Error e -> Alcotest.failf "escape stage: %s" e
  | Ok out -> Alcotest.(check int) "one failure" 1 (List.length out.failed_clusters)

(* ---------- Detour_stage ---------- *)

(* Build a routed tree cluster by running the real pipeline pieces. *)
let routed_tree_cluster grid vs =
  let cluster = Cluster.make_exn ~id:0 ~length_matched:true vs in
  let valve_cells = Point.Set.of_list (List.map (fun (v : Valve.t) -> v.position) vs) in
  let out = Cluster_route.route ~config:Config.default ~grid ~valve_cells [ cluster ] in
  match out.routed with
  | [ r ] -> r
  | _ -> Alcotest.fail "cluster did not route"

let test_detour_stage_fixes_imbalance () =
  let grid = Routing_grid.create ~width:24 ~height:24 () in
  let r =
    routed_tree_cluster grid
      [ mk_valve 0 4 4 "01"; mk_valve 1 4 13 "01"; mk_valve 2 13 8 "01" ]
  in
  let out = Detour_stage.run ~grid ~delta:1 ~theta:10 ~blocked:r.claimed [ r ] in
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
  let out = Detour_stage.run ~grid ~delta:1 ~theta:10 ~blocked:Point.Set.empty [ r ] in
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
    let r', ok = Detour_stage.detour_one ~grid ~delta:1 ~theta:10 ~blocked:!blocked r in
    Alcotest.(check bool) "failed" false ok;
    Alcotest.(check bool) "identical claims (restored)" true
      (Point.Set.equal r'.Routed.claimed r.Routed.claimed)
  | Some _ | None ->
    (* Already matched without detours: nothing to assert here. *)
    ()

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
  let svg_problem = Svg.problem p in
  Alcotest.(check bool) "problem svg" true
    (String.length svg_problem > 100
     && String.sub svg_problem 0 4 = "<svg");
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
    Alcotest.(check bool) "well terminated" true
      (String.length svg > 7
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

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_engine_routes_random_instances; prop_variants_all_valid ]

let () =
  Alcotest.run "stages"
    [ ( "cluster_route",
        [ Alcotest.test_case "pair and tree" `Quick test_cluster_route_pair_and_tree;
          Alcotest.test_case "ignores plain" `Quick test_cluster_route_ignores_plain;
          Alcotest.test_case "route_single" `Quick test_route_single_roundtrip ] );
      ( "escape_stage",
        [ Alcotest.test_case "assigns all" `Quick test_escape_stage_assigns_all;
          Alcotest.test_case "reports failures" `Quick test_escape_stage_reports_failures ] );
      ( "detour_stage",
        [ Alcotest.test_case "fixes imbalance" `Quick test_detour_stage_fixes_imbalance;
          Alcotest.test_case "skips plain" `Quick test_detour_stage_skips_plain;
          Alcotest.test_case "restores on failure" `Quick test_detour_one_restores_on_failure ] );
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
