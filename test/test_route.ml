open Pacor_geom
open Pacor_grid
open Pacor_route

let grid ?(obstacles = []) w h = Routing_grid.create ~width:w ~height:h ~obstacles ()

let free_spec obstacles = Astar.obstacle_spec obstacles

(* Every element of a workspace int array reads zero. *)
let all_zero (a : Workspace.ints) =
  let rec from i = i = Bigarray.Array1.dim a || (a.{i} = 0 && from (i + 1)) in
  from 0

(* One source, one target, [obstacles] the only blockage. *)
let shortest ~grid ~obstacles a b =
  Astar.search ~grid ~spec:(free_spec obstacles) ~sources:[ a ] ~targets:[ b ] ()

(* ---------- A* ---------- *)

let test_astar_straight_line () =
  let g = grid 10 10 in
  let obs = Routing_grid.fresh_work_map g in
  match shortest ~grid:g ~obstacles:obs (Point.make 1 1) (Point.make 6 1) with
  | None -> Alcotest.fail "expected a path"
  | Some p ->
    Alcotest.(check int) "manhattan optimal" 5 (Path.length p);
    Alcotest.(check bool) "starts at source" true (Point.equal (Path.source p) (Point.make 1 1));
    Alcotest.(check bool) "ends at target" true (Point.equal (Path.target p) (Point.make 6 1))

let test_astar_around_wall () =
  (* Vertical wall with one gap. *)
  let wall = Rect.make ~x0:4 ~y0:0 ~x1:4 ~y1:7 in
  let g = grid ~obstacles:[ wall ] 10 10 in
  let obs = Routing_grid.fresh_work_map g in
  match shortest ~grid:g ~obstacles:obs (Point.make 1 1) (Point.make 8 1) with
  | None -> Alcotest.fail "expected a path"
  | Some p ->
    (* Must pass through the gap row (y >= 8). *)
    Alcotest.(check bool) "detours above wall" true
      (List.exists (fun (q : Point.t) -> q.y >= 8) (Path.points p));
    Alcotest.(check int) "optimal detour length" 21 (Path.length p)

let test_astar_blocked_completely () =
  let wall = Rect.make ~x0:4 ~y0:0 ~x1:4 ~y1:9 in
  let g = grid ~obstacles:[ wall ] 10 10 in
  let obs = Routing_grid.fresh_work_map g in
  Alcotest.(check bool) "no path" true
    (shortest ~grid:g ~obstacles:obs (Point.make 1 1) (Point.make 8 1) = None)

let test_astar_endpoints_exempt () =
  (* Source and target sit on blocked cells: still routable. *)
  let g = grid 8 8 in
  let obs = Routing_grid.fresh_work_map g in
  Obstacle_map.block obs (Point.make 1 1);
  Obstacle_map.block obs (Point.make 5 1);
  match shortest ~grid:g ~obstacles:obs (Point.make 1 1) (Point.make 5 1) with
  | None -> Alcotest.fail "expected path despite blocked endpoints"
  | Some p -> Alcotest.(check int) "length" 4 (Path.length p)

let test_astar_multi_source_target () =
  let g = grid 12 12 in
  let spec = free_spec (Routing_grid.fresh_work_map g) in
  let sources = [ Point.make 1 1; Point.make 10 10 ] in
  let targets = [ Point.make 10 1 ] in
  match Astar.search ~grid:g ~spec ~sources ~targets () with
  | None -> Alcotest.fail "expected path"
  | Some p ->
    (* Nearest source to the target is (10,10): distance 9. *)
    Alcotest.(check int) "uses nearest source" 9 (Path.length p)

let test_astar_source_is_target () =
  let g = grid 5 5 in
  let spec = free_spec (Routing_grid.fresh_work_map g) in
  match
    Astar.search ~grid:g ~spec ~sources:[ Point.make 2 2 ] ~targets:[ Point.make 2 2 ] ()
  with
  | Some p -> Alcotest.(check int) "trivial" 0 (Path.length p)
  | None -> Alcotest.fail "expected trivial path"

let test_astar_extra_cost_steers () =
  (* Penalise the straight row so the path detours around it. *)
  let g = grid 10 5 in
  let obs = Routing_grid.fresh_work_map g in
  let spec =
    { Astar.usable = (fun i -> Obstacle_map.free_i obs i);
      extra_cost =
        (fun i ->
          let p = Routing_grid.point_of_index g i in
          if p.y = 2 && p.x >= 2 && p.x <= 7 then 10 * Astar.cost_scale else 0) }
  in
  match
    Astar.search ~grid:g ~spec ~sources:[ Point.make 0 2 ] ~targets:[ Point.make 9 2 ] ()
  with
  | None -> Alcotest.fail "expected path"
  | Some p ->
    Alcotest.(check bool) "avoids penalised row" true
      (List.for_all
         (fun (q : Point.t) -> not (q.y = 2 && q.x >= 2 && q.x <= 7))
         (Path.points p))

(* Counter semantics, pinned by hand on a 3x3 grid: [touched] counts every
   in-bounds neighbour examined, [relaxed] only those passing the
   enterable/not-closed check — so a blocked or already-closed neighbour
   is touched but never relaxed. (The old code counted the relax before
   the check, conflating the two.) Obstacle at (1,0), route (0,0)->(2,0):
   expansion order is 0,3,4,5 then the target; of the 12 in-bounds
   neighbour examinations, 5 hit the obstacle or a closed cell. *)
let test_search_stats_pinned () =
  let g = grid 3 3 in
  let obs = Routing_grid.fresh_work_map g in
  Obstacle_map.block obs (Point.make 1 0);
  let stats = Search_stats.create () in
  let ws = Workspace.create ~stats () in
  (match
     Astar.search ~workspace:ws ~grid:g ~spec:(free_spec obs)
       ~sources:[ Point.make 0 0 ] ~targets:[ Point.make 2 0 ] ()
   with
   | None -> Alcotest.fail "expected detour path"
   | Some p -> Alcotest.(check int) "detour length" 4 (Path.length p));
  let s = Search_stats.snapshot stats in
  Alcotest.(check int) "searches" 1 s.Search_stats.searches;
  Alcotest.(check int) "pops" 5 s.Search_stats.pops;
  Alcotest.(check int) "pushes" 8 s.Search_stats.pushes;
  Alcotest.(check int) "touched" 12 s.Search_stats.touched;
  Alcotest.(check int) "relaxed" 7 s.Search_stats.relaxations;
  Alcotest.(check bool) "relaxed <= touched" true
    (s.Search_stats.relaxations <= s.Search_stats.touched)

(* ---------- Negotiation ---------- *)

let test_negotiation_single_edge () =
  let g = grid 8 8 in
  let out =
    Negotiation.route ~grid:g ~obstacles:(Routing_grid.fresh_work_map g)
      [ { Negotiation.edge_id = 0; ends = (Point.make 1 1, Point.make 6 1) } ]
  in
  Alcotest.(check bool) "success" true out.success;
  Alcotest.(check int) "one path" 1 (List.length out.paths)

let test_negotiation_conflicting_edges () =
  (* Both edges want row 4; the second must detour around the first's
     claimed path (full-span crossing pairs are topologically impossible
     on one layer, so the vertical edge stops short of the boundary and
     can wrap around the horizontal one). *)
  let g = grid 9 9 in
  let edges =
    [ { Negotiation.edge_id = 0; ends = (Point.make 1 4, Point.make 7 4) };
      { Negotiation.edge_id = 1; ends = (Point.make 4 1, Point.make 4 7) } ]
  in
  let out = Negotiation.route ~grid:g ~obstacles:(Routing_grid.fresh_work_map g) edges in
  Alcotest.(check bool) "both routed" true out.success;
  (match out.paths with
   | [ (_, a); (_, b) ] ->
     Alcotest.(check bool) "vertex disjoint" false (Path.shares_vertex a b)
   | _ -> Alcotest.fail "expected two paths")

let test_negotiation_shared_endpoint () =
  (* Two edges of one tree meeting at a merge node. *)
  let g = grid 8 8 in
  let m = Point.make 4 4 in
  let edges =
    [ { Negotiation.edge_id = 0; ends = (Point.make 1 4, m) };
      { Negotiation.edge_id = 1; ends = (m, Point.make 7 4) } ]
  in
  let out = Negotiation.route ~grid:g ~obstacles:(Routing_grid.fresh_work_map g) edges in
  Alcotest.(check bool) "success with shared endpoint" true out.success

let test_negotiation_impossible () =
  (* Second edge's endpoint is walled in. *)
  let walls =
    [ Rect.make ~x0:5 ~y0:5 ~x1:7 ~y1:5; Rect.make ~x0:5 ~y0:7 ~x1:7 ~y1:7;
      Rect.make ~x0:5 ~y0:5 ~x1:5 ~y1:7; Rect.make ~x0:7 ~y0:5 ~x1:7 ~y1:7 ]
  in
  let g = grid ~obstacles:walls 10 10 in
  let edges =
    [ { Negotiation.edge_id = 0; ends = (Point.make 1 1, Point.make 6 6) } ]
  in
  let out = Negotiation.route ~grid:g ~obstacles:(Routing_grid.fresh_work_map g) edges in
  Alcotest.(check bool) "fails" false out.success;
  Alcotest.(check bool) "bounded iterations" true
    (out.iterations <= Negotiation.default_config.gamma)

let test_negotiation_many_parallel () =
  (* Ten horizontal edges on ten rows: trivially disjoint. *)
  let g = grid 12 12 in
  let edges =
    List.init 10 (fun i ->
      { Negotiation.edge_id = i; ends = (Point.make 1 (i + 1), Point.make 10 (i + 1)) })
  in
  let out = Negotiation.route ~grid:g ~obstacles:(Routing_grid.fresh_work_map g) edges in
  Alcotest.(check bool) "all routed" true out.success;
  Alcotest.(check int) "first iteration" 1 out.iterations


let test_negotiation_deterministic () =
  (* Identical inputs produce identical paths — the whole flow relies on
     reproducibility. *)
  let g = grid 12 12 in
  let edges =
    [ { Negotiation.edge_id = 0; ends = (Point.make 1 3, Point.make 10 6) };
      { Negotiation.edge_id = 1; ends = (Point.make 1 6, Point.make 10 3) };
      { Negotiation.edge_id = 2; ends = (Point.make 5 1, Point.make 5 10) } ]
  in
  let run () = Negotiation.route ~grid:g ~obstacles:(Routing_grid.fresh_work_map g) edges in
  let a = run () and b = run () in
  Alcotest.(check int) "same path count" (List.length a.paths) (List.length b.paths);
  List.iter2
    (fun (ia, pa) (ib, pb) ->
       Alcotest.(check int) "same edge id" ia ib;
       Alcotest.(check bool) "same path" true (Path.equal pa pb))
    a.paths b.paths

let test_negotiation_paths_disjoint_invariant () =
  (* On success, every pair of routed paths is vertex-disjoint except at a
     shared endpoint. *)
  let g = grid 14 14 in
  let m = Point.make 7 7 in
  let edges =
    [ { Negotiation.edge_id = 0; ends = (Point.make 2 7, m) };
      { Negotiation.edge_id = 1; ends = (m, Point.make 12 7) };
      { Negotiation.edge_id = 2; ends = (Point.make 2 2, Point.make 12 2) };
      { Negotiation.edge_id = 3; ends = (Point.make 2 12, Point.make 12 12) } ]
  in
  let out = Negotiation.route ~grid:g ~obstacles:(Routing_grid.fresh_work_map g) edges in
  Alcotest.(check bool) "success" true out.success;
  let arr = Array.of_list out.paths in
  for i = 0 to Array.length arr - 1 do
    for j = i + 1 to Array.length arr - 1 do
      let _, pi = arr.(i) and _, pj = arr.(j) in
      let shared =
        List.filter (fun p -> Path.mem pj p) (Path.points pi)
      in
      Alcotest.(check bool) "at most a shared endpoint" true
        (List.length shared <= 1
         && List.for_all
              (fun p ->
                 Point.equal p (Path.source pi) || Point.equal p (Path.target pi))
              shared)
    done
  done

(* ---------- Bounded A* ---------- *)

let test_bounded_meets_bound () =
  let g = grid 10 10 in
  let usable _ = true in
  List.iter
    (fun min_length ->
       match
         Bounded_astar.search ~grid:g ~usable ~source:(Point.make 2 2)
           ~target:(Point.make 6 2) ~min_length ()
       with
       | None -> Alcotest.failf "no path for bound %d" min_length
       | Some p ->
         Alcotest.(check bool)
           (Printf.sprintf "length >= %d" min_length)
           true
           (Path.length p >= min_length);
         (* Parity: any path between these endpoints has even length. *)
         Alcotest.(check int) "parity preserved" 0 (Path.length p mod 2))
    [ 0; 4; 6; 10; 14 ]

let test_bounded_equals_shortest_when_bound_small () =
  let g = grid 10 10 in
  match
    Bounded_astar.search ~grid:g ~usable:(fun _ -> true) ~source:(Point.make 1 1)
      ~target:(Point.make 4 1) ~min_length:0 ()
  with
  | None -> Alcotest.fail "expected path"
  | Some p -> Alcotest.(check int) "shortest" 3 (Path.length p)

let test_bounded_respects_obstacles () =
  let wall = Rect.make ~x0:0 ~y0:3 ~x1:8 ~y1:3 in
  let g = grid ~obstacles:[ wall ] 10 10 in
  let usable i = Routing_grid.free_i g i in
  match
    Bounded_astar.search ~grid:g ~usable ~source:(Point.make 1 1) ~target:(Point.make 5 1)
      ~min_length:8 ()
  with
  | None -> Alcotest.fail "expected path"
  | Some p ->
    Alcotest.(check bool) "length >= 8" true (Path.length p >= 8);
    List.iter
      (fun (q : Point.t) ->
         Alcotest.(check bool) "off wall" true
           (not (q.y = 3 && q.x <= 8)))
      (Path.points p)

let test_bounded_impossible_bound () =
  (* 1x5 corridor: the only simple path has length 4; bound 6 unreachable. *)
  let g = grid 5 1 in
  Alcotest.(check bool) "unreachable bound" true
    (Bounded_astar.search ~grid:g ~usable:(fun _ -> true) ~source:(Point.make 0 0)
       ~target:(Point.make 4 0) ~min_length:6 ()
     = None)

(* ---------- Detour (bump insertion) ---------- *)

let test_lengthen_basic () =
  let g = grid 10 10 in
  ignore g;
  let path = Path.of_points [ Point.make 2 5; Point.make 3 5; Point.make 4 5 ] in
  let usable _ = true in
  (match Detour.lengthen path ~target:6 ~usable with
   | None -> Alcotest.fail "expected lengthened path"
   | Some p ->
     Alcotest.(check int) "length 6" 6 (Path.length p);
     Alcotest.(check bool) "same endpoints" true
       (Point.equal (Path.source p) (Point.make 2 5)
        && Point.equal (Path.target p) (Point.make 4 5)));
  (match Detour.lengthen path ~target:7 ~usable with
   | None -> Alcotest.fail "expected lengthened path"
   | Some p -> Alcotest.(check int) "odd target overshoots to 8" 8 (Path.length p))

let test_lengthen_already_long_enough () =
  let path = Path.of_points [ Point.make 2 5; Point.make 3 5 ] in
  match Detour.lengthen path ~target:1 ~usable:(fun _ -> true) with
  | Some p -> Alcotest.(check int) "unchanged" 1 (Path.length p)
  | None -> Alcotest.fail "expected identity"

let test_lengthen_no_room () =
  (* 3x1 corridor: no space for bumps. *)
  let path = Path.of_points [ Point.make 0 0; Point.make 1 0; Point.make 2 0 ] in
  let usable (p : Point.t) = p.y = 0 && p.x >= 0 && p.x <= 2 in
  Alcotest.(check bool) "no bump possible" true
    (Detour.lengthen path ~target:4 ~usable = None)

let test_lengthen_large_target () =
  let path = Path.of_points [ Point.make 5 5; Point.make 6 5 ] in
  let usable (p : Point.t) = p.x >= 0 && p.x < 20 && p.y >= 0 && p.y < 20 in
  match Detour.lengthen path ~target:21 ~usable with
  | None -> Alcotest.fail "expected heavy detour"
  | Some p ->
    Alcotest.(check bool) "length >= 21" true (Path.length p >= 21);
    Alcotest.(check bool) "overshoot <= 1" true (Path.length p <= 22)

(* ---------- MST router ---------- *)

let test_mst_router_connects_all () =
  let g = grid 15 15 in
  let terminals = [ Point.make 2 2; Point.make 12 2; Point.make 7 12; Point.make 2 12 ] in
  match Mst_router.route ~grid:g ~obstacles:(Routing_grid.fresh_work_map g) terminals with
  | None -> Alcotest.fail "expected routing"
  | Some out ->
    Alcotest.(check int) "three edges" 3 (List.length out.paths);
    List.iter
      (fun t ->
         Alcotest.(check bool) "terminal claimed" true (Point.Set.mem t out.claimed))
      terminals;
    Alcotest.(check bool) "positive length" true (out.total_length > 0);
    (* Connectivity: union of path points forms one component containing
       all terminals; verify by BFS over claimed cells. *)
    let claimed = out.claimed in
    let visited = ref Point.Set.empty in
    let rec bfs = function
      | [] -> ()
      | p :: rest ->
        if Point.Set.mem p !visited then bfs rest
        else begin
          visited := Point.Set.add p !visited;
          let next =
            List.filter (fun q -> Point.Set.mem q claimed) (Point.neighbours4 p)
          in
          bfs (next @ rest)
        end
    in
    bfs [ List.hd terminals ];
    List.iter
      (fun t -> Alcotest.(check bool) "terminal reachable" true (Point.Set.mem t !visited))
      terminals

let test_mst_router_singleton () =
  let g = grid 5 5 in
  match Mst_router.route ~grid:g ~obstacles:(Routing_grid.fresh_work_map g) [ Point.make 2 2 ] with
  | Some out ->
    Alcotest.(check int) "no paths" 0 (List.length out.paths);
    Alcotest.(check int) "claims itself" 1 (Point.Set.cardinal out.claimed)
  | None -> Alcotest.fail "singleton should route"

let test_mst_router_blocked () =
  (* One terminal boxed in. *)
  let walls =
    [ Rect.make ~x0:4 ~y0:4 ~x1:6 ~y1:4; Rect.make ~x0:4 ~y0:6 ~x1:6 ~y1:6;
      Rect.make ~x0:4 ~y0:4 ~x1:4 ~y1:6; Rect.make ~x0:6 ~y0:4 ~x1:6 ~y1:6 ]
  in
  let g = grid ~obstacles:walls 12 12 in
  Alcotest.(check bool) "unroutable" true
    (Mst_router.route ~grid:g ~obstacles:(Routing_grid.fresh_work_map g)
       [ Point.make 1 1; Point.make 5 5 ]
     = None)

let test_mst_router_empty () =
  let g = grid 5 5 in
  Alcotest.(check bool) "empty input" true
    (Mst_router.route ~grid:g ~obstacles:(Routing_grid.fresh_work_map g) [] = None)


(* ---------- Steiner (RSMT) ---------- *)

let pts l = List.map (fun (x, y) -> Point.make x y) l

let test_rsmt_cross () =
  (* Four points in a cross: one Steiner point at the centre saves 2x the
     radius compared with the MST. *)
  let terminals = pts [ (5, 0); (0, 5); (10, 5); (5, 10) ] in
  let t = Steiner.rsmt terminals in
  Alcotest.(check int) "optimal cross" 20 t.length;
  Alcotest.(check bool) "beats MST" true (t.length < Steiner.mst_length terminals);
  Alcotest.(check bool) "steiner point added" true (List.length t.nodes > 4)

let test_rsmt_collinear () =
  let terminals = pts [ (0, 3); (4, 3); (9, 3) ] in
  let t = Steiner.rsmt terminals in
  Alcotest.(check int) "collinear needs no steiner points" 9 t.length

let test_rsmt_two_points () =
  let t = Steiner.rsmt (pts [ (1, 1); (4, 5) ]) in
  Alcotest.(check int) "manhattan" 7 t.length

let test_rsmt_bounds () =
  let terminals = pts [ (2, 2); (2, 10); (12, 3); (13, 11) ] in
  let t = Steiner.rsmt terminals in
  Alcotest.(check bool) "rsmt <= mst" true (t.length <= Steiner.mst_length terminals);
  Alcotest.(check bool) "rsmt >= half perimeter" true
    (t.length >= Steiner.half_perimeter terminals)

let test_rsmt_duplicates_rejected () =
  Alcotest.check_raises "duplicates" (Invalid_argument "Steiner.rsmt: duplicate terminals")
    (fun () -> ignore (Steiner.rsmt (pts [ (1, 1); (1, 1) ])))

let test_hanan_points () =
  let h = Steiner.hanan_points (pts [ (0, 0); (3, 4) ]) in
  Alcotest.(check int) "two crossings" 2 (List.length h);
  Alcotest.(check bool) "contains (0,4)" true (List.exists (Point.equal (Point.make 0 4)) h)

let prop_rsmt_between_bounds =
  let arb =
    QCheck.make
      QCheck.Gen.(
        let* n = int_range 2 6 in
        let rec gen acc k =
          if k = 0 then return acc
          else
            let* x = int_range 0 15 and* y = int_range 0 15 in
            let p = Point.make x y in
            if List.exists (Point.equal p) acc then gen acc k
            else gen (p :: acc) (k - 1)
        in
        gen [] n)
  in
  QCheck.Test.make ~name:"half-perimeter <= rsmt <= mst" ~count:80 arb (fun terminals ->
    let t = Steiner.rsmt terminals in
    Steiner.half_perimeter terminals <= t.length
    && t.length <= Steiner.mst_length terminals)

(* Regression for the best-iteration tie-break: negotiation must keep an
   iteration that routes the {e same} number of edges on shorter total
   wirelength. Two crossing edges contend for the cells around (1..3, 5);
   iteration 1 routes edge 0 straight and shoves edge 1 onto a long wrap,
   and history costs later settle both on short paths. A third, walled-in
   edge keeps the loop iterating (success never happens), so the
   best-tracking is what decides the outcome. *)
let test_negotiation_keeps_shorter_tie () =
  let obstacles =
    [ Rect.make ~x0:0 ~y0:7 ~x1:2 ~y1:7;    (* pen around edge 2's endpoints *)
      Rect.make ~x0:1 ~y0:8 ~x1:1 ~y1:8;
      Rect.make ~x0:3 ~y0:5 ~x1:3 ~y1:5;    (* scatter forcing the iteration-1
                                               ordering onto long detours *)
      Rect.make ~x0:0 ~y0:3 ~x1:0 ~y1:4;
      Rect.make ~x0:10 ~y0:3 ~x1:10 ~y1:4 ]
  in
  let g = grid ~obstacles 11 9 in
  let edges =
    [ { Negotiation.edge_id = 2; ends = (Point.make 0 8, Point.make 2 8) };
      { Negotiation.edge_id = 0; ends = (Point.make 6 5, Point.make 0 5) };
      { Negotiation.edge_id = 1; ends = (Point.make 3 2, Point.make 1 6) } ]
  in
  let run gamma =
    Negotiation.route
      ~config:{ Negotiation.default_config with gamma }
      ~grid:g ~obstacles:(Routing_grid.fresh_work_map g) edges
  in
  let total out =
    List.fold_left (fun acc (_, p) -> acc + Path.length p) 0 out.Negotiation.paths
  in
  let first = run 1 and negotiated = run 8 in
  Alcotest.(check int) "iteration 1 routes both" 2 (List.length first.paths);
  Alcotest.(check int) "negotiated routes both" 2 (List.length negotiated.paths);
  Alcotest.(check bool) "walled edge keeps failing" false negotiated.success;
  Alcotest.(check bool)
    (Printf.sprintf "negotiated total %d < first-iteration total %d" (total negotiated)
       (total first))
    true
    (total negotiated < total first)

(* Entry-pool saturation: adjacent source/target with a bound of 3. The
   wrap-around path exists (down, across, up), but finding it needs cells
   near the target to hold more than one G value — with
   [max_visits_per_cell = 1] the first (too-short) visit saturates its
   cell's pool slot and the search must give up cleanly; the default
   visit budget finds the exact-length path. *)
let test_bounded_saturation () =
  let g = grid 9 9 in
  let usable _ = true in
  let source = Point.make 4 4 and target = Point.make 4 5 in
  (match
     Bounded_astar.search ~grid:g ~usable ~max_visits_per_cell:1 ~source ~target
       ~min_length:1 ()
   with
   | Some p -> Alcotest.(check int) "direct step within one visit" 1 (Path.length p)
   | None -> Alcotest.fail "expected direct step");
  Alcotest.(check bool) "longer bound saturates one visit" true
    (Bounded_astar.search ~grid:g ~usable ~max_visits_per_cell:1 ~source ~target
       ~min_length:3 ()
     = None);
  (match Bounded_astar.search ~grid:g ~usable ~source ~target ~min_length:3 () with
   | Some p -> Alcotest.(check int) "default visits meet the bound" 3 (Path.length p)
   | None -> Alcotest.fail "expected bounded path with default visits")

(* Scaled3's hopeless detour call, cut out of the chip ('#' blocked, '.'
   usable). Source S and target T sit in a pocket of six cells whose only
   exit is the articulation cell right of S's neighbour, so every simple
   S-T path has at most 5 edges. Bound 6 must be refused before the first
   pop, charging nothing to the budget; bound 5 is met. *)
let scaled3_pocket =
  [| ".................";
     "...........#.....";
     "...........##....";
     "........#####....";
     ".......##T.##.#..";
     ".......##..####..";
     ".......#S........";
     ".......###.......";
     ".......###.......";
     ".......##........";
     ".......##........";
     "...#####.........";
     "...#............." |]

let test_bounded_refuses_pocket () =
  let w = String.length scaled3_pocket.(0) and h = Array.length scaled3_pocket in
  let at i = scaled3_pocket.(i / w).[i mod w] in
  let point_of c =
    let i = List.find (fun i -> at i = c) (List.init (w * h) Fun.id) in
    Point.make (i mod w) (i / w)
  in
  let source = point_of 'S' and target = point_of 'T' in
  let g = grid w h in
  let usable i = at i = '.' in
  let stats = Search_stats.create () in
  let ws = Workspace.create ~stats () in
  let budget = Budget.create (Budget.limits ~max_expansions:1 ()) in
  Budget.arm budget;
  Workspace.set_budget ws budget;
  let run min_length =
    Bounded_astar.search ~workspace:ws ~grid:g ~usable ~source ~target ~min_length ()
  in
  Alcotest.(check bool) "bound 6 unreachable" true (run 6 = None);
  let s = Search_stats.snapshot stats in
  Alcotest.(check int) "refused" 1 s.Search_stats.refused;
  Alcotest.(check int) "zero pops" 0 s.Search_stats.pops;
  Alcotest.(check bool) "budget untouched" true (Budget.exhausted budget = None);
  Workspace.set_budget ws (Budget.unlimited ());
  (match run 5 with
   | Some p -> Alcotest.(check int) "bound 5 met exactly" 5 (Path.length p)
   | None -> Alcotest.fail "expected a 5-edge path");
  Alcotest.(check int) "a reachable bound is searched" 1
    (Search_stats.snapshot stats).Search_stats.refused

(* ---------- Workspace ---------- *)

(* One workspace reused across many searches must do its grid-sized array
   allocations once: the grid_allocs counter stays flat from the first
   search on (the tentpole's core claim — O(1) epoch reset, no per-search
   allocation). *)
let test_workspace_allocs_monotonic () =
  let stats = Search_stats.create () in
  let ws = Workspace.create ~stats () in
  let g = grid 20 20 in
  let spec = free_spec (Routing_grid.fresh_work_map g) in
  let search i =
    Astar.search ~workspace:ws ~grid:g ~spec
      ~sources:[ Point.make (i mod 10) 1 ]
      ~targets:[ Point.make (19 - (i mod 10)) 18 ]
      ()
  in
  (match search 0 with None -> Alcotest.fail "first search failed" | Some _ -> ());
  let allocs_after_first = (Search_stats.snapshot stats).Search_stats.grid_allocs in
  for i = 1 to 50 do
    match search i with
    | None -> Alcotest.fail "reused search failed"
    | Some _ -> ()
  done;
  let snap = Search_stats.snapshot stats in
  Alcotest.(check int) "no grid allocations after warm-up" allocs_after_first
    snap.Search_stats.grid_allocs;
  Alcotest.(check int) "every search counted" 51 snap.Search_stats.searches;
  (* Bounded searches on the same workspace likewise stop allocating once
     the entry pool fits. *)
  let bounded () =
    Bounded_astar.search ~workspace:ws ~grid:g ~usable:(fun _ -> true)
      ~source:(Point.make 2 2) ~target:(Point.make 10 2) ~min_length:12 ()
  in
  (match bounded () with None -> Alcotest.fail "bounded failed" | Some _ -> ());
  let after_bounded = (Search_stats.snapshot stats).Search_stats.grid_allocs in
  for _ = 1 to 10 do
    match bounded () with
    | None -> Alcotest.fail "reused bounded failed"
    | Some _ -> ()
  done;
  Alcotest.(check int) "bounded pool allocated once" after_bounded
    (Search_stats.snapshot stats).Search_stats.grid_allocs

(* The visit pool grows by what a search appends, not by the grid: a
   short bounded search on a 1000x1000 grid allocates a few kilobytes once
   the node record exists (a pool sized at 8 visits per cell was 128 MB). *)
let test_bounded_pool_sized_by_appends () =
  let g = grid 1000 1000 in
  let ws = Workspace.create () in
  Workspace.begin_search ws ~cells:(Routing_grid.cells g);
  let before = Gc.allocated_bytes () in
  let found =
    Bounded_astar.search ~workspace:ws ~grid:g ~usable:(fun _ -> true)
      ~source:(Point.make 500 500) ~target:(Point.make 503 500) ~min_length:7 ()
  in
  let allocated = Gc.allocated_bytes () -. before in
  (match found with
   | Some p -> Alcotest.(check int) "bound met" 7 (Path.length p)
   | None -> Alcotest.fail "expected a 7-edge path");
  if allocated >= 1e6 then Alcotest.failf "bounded search allocated %.0f bytes" allocated

(* Pins of a bounded search in which cells hold several visit entries
   (up to four with the default cap, three with a cap of 3, which the
   second search reaches), so the per-cell chain walk that dedups G values
   and enforces the cap decides the pushes. Path and counters were
   recorded with the earlier fixed-stride pool. *)
let test_bounded_multi_entry_pins () =
  let g = grid 7 5 in
  let run max_visits_per_cell =
    let stats = Search_stats.create () in
    let ws = Workspace.create ~stats () in
    let found =
      Bounded_astar.search ~workspace:ws ~grid:g ~usable:(fun _ -> true) ~max_visits_per_cell
        ~source:(Point.make 1 2) ~target:(Point.make 5 2) ~min_length:12 ()
    in
    let most = ref 0 in
    for i = 0 to Routing_grid.cells g - 1 do
      let rec entries slot n = if slot < 0 then n else entries (Workspace.entry_next ws slot) (n + 1) in
      most := max !most (entries (Workspace.entry_head ws i) 0)
    done;
    let s = Search_stats.snapshot stats in
    let path =
      match found with
      | None -> "none"
      | Some p ->
        String.concat ";"
          (List.map (fun (q : Point.t) -> Printf.sprintf "%d,%d" q.x q.y) (Path.points p))
    in
    ( Printf.sprintf "pops=%d pushes=%d touched=%d relax=%d path=%s" s.Search_stats.pops
        s.Search_stats.pushes s.Search_stats.touched s.Search_stats.relaxations path,
      !most )
  in
  let path = "1,2;0,2;0,3;0,4;1,4;2,4;2,3;2,2;2,1;3,1;4,1;5,1;5,2" in
  let line, most = run 8 in
  Alcotest.(check string) "default cap" ("pops=18 pushes=35 touched=61 relax=61 path=" ^ path) line;
  Alcotest.(check int) "most entries on a cell, default cap" 4 most;
  let line, most = run 3 in
  Alcotest.(check string) "cap 3" ("pops=17 pushes=34 touched=57 relax=57 path=" ^ path) line;
  Alcotest.(check int) "most entries on a cell, cap 3" 3 most

(* The oracles' 0-1-BFS deque (test/deque.ml) honours deque order: push_front items come out
   before everything pushed at the back, and pops are charged to the same
   budget/stat counters as heap pops. *)
let test_workspace_deque_order () =
  let stats = Search_stats.create () in
  let ws = Workspace.create ~stats () in
  Workspace.begin_search ws ~cells:16;
  let dq = Deque.create ws in
  Alcotest.(check bool) "fresh deque is empty" true (Deque.is_empty dq);
  Deque.push_back dq 1;
  Deque.push_back dq 2;
  Deque.push_front dq 3;
  Deque.push_back dq 4;
  Deque.push_front dq 5;
  let order = List.init 5 (fun _ -> Deque.pop_front dq) in
  Alcotest.(check (list int)) "deque order" [ 5; 3; 1; 2; 4 ] order;
  Alcotest.(check int) "empty pop returns sentinel" (-1) (Deque.pop_front dq);
  let snap = Search_stats.snapshot stats in
  Alcotest.(check int) "pushes counted" 5 snap.Search_stats.pushes;
  Alcotest.(check int) "pops counted" 5 snap.Search_stats.pops

(* Growth past the initial capacity preserves FIFO order even when the ring
   has wrapped (head <> 0 at grow time), and a new epoch discards leftovers. *)
let test_workspace_deque_growth_and_reset () =
  let ws = Workspace.create () in
  Workspace.begin_search ws ~cells:4;
  let dq = Deque.create ws in
  (* Wrap the ring: interleave pushes and pops so head advances. *)
  for i = 0 to 19 do
    Deque.push_back dq i;
    if i mod 3 = 2 then ignore (Deque.pop_front dq)
  done;
  for i = 20 to 299 do
    Deque.push_back dq i
  done;
  (* The six interleaved pops consumed the then-fronts 0..5. *)
  let expect = List.init 294 (fun k -> k + 6) in
  let got = List.map (fun _ -> Deque.pop_front dq) expect in
  Alcotest.(check (list int)) "FIFO survives growth and wrap" expect got;
  Deque.push_back dq 42;
  Workspace.begin_search ws ~cells:4;
  Alcotest.(check bool) "epoch reset clears the deque" true
    (Deque.is_empty dq);
  Alcotest.(check int) "no stale element after reset" (-1)
    (Deque.pop_front dq)

(* Deque pops tick the workspace budget exactly like heap pops: once the
   expansion budget is spent, pops return the sentinel even when elements
   remain queued. *)
let test_workspace_deque_budget () =
  let ws = Workspace.create () in
  let budget = Budget.create (Budget.limits ~max_expansions:3 ()) in
  Workspace.set_budget ws budget;
  Budget.arm budget;
  Workspace.begin_search ws ~cells:8;
  let dq = Deque.create ws in
  for i = 0 to 5 do
    Deque.push_back dq i
  done;
  let drained = List.init 4 (fun _ -> Deque.pop_front dq) in
  Alcotest.(check (list int)) "budget cuts the drain" [ 0; 1; 2; -1 ] drained;
  Alcotest.(check bool) "elements remain queued" false (Deque.is_empty dq);
  (match Budget.exhausted budget with
   | Some Budget.Expansions -> ()
   | _ -> Alcotest.fail "expected expansion exhaustion");
  Workspace.set_budget ws (Budget.unlimited ())

(* The node record's stamp: a new epoch opens every node (a node closed
   in the previous one reads open, at [max_int] and parent [-1]), and
   [set_dist] on a closed node keeps it closed; both before and after
   the record grows. Then A* on one warm workspace reused across grid
   sizes, which grow and then reuse the record, returns the paths and
   counters of a fresh workspace per search. *)
let test_workspace_node_record () =
  let stats = Search_stats.create () in
  let ws = Workspace.create ~stats () in
  let node_state v = (Workspace.closed ws v, Workspace.dist ws v, Workspace.parent ws v) in
  let state = Alcotest.(triple bool int int) in
  let epochs label begin_epoch v =
    begin_epoch ();
    Alcotest.check state (label ^ ": untouched") (false, max_int, -1) (node_state v);
    Workspace.set_dist ws v 7;
    Workspace.set_parent ws v 3;
    Workspace.close ws v;
    Alcotest.check state (label ^ ": closed") (true, 7, 3) (node_state v);
    Workspace.set_dist ws v 5;
    Alcotest.check state (label ^ ": set_dist keeps it closed") (true, 5, 3) (node_state v);
    begin_epoch ();
    Alcotest.check state (label ^ ": next epoch opens it") (false, max_int, -1) (node_state v);
    Workspace.set_dist ws v 9;
    Alcotest.check state (label ^ ": first touch resets the parent") (false, 9, -1)
      (node_state v);
    Workspace.close ws v;
    begin_epoch ();
    Alcotest.check state (label ^ ": closed again, then a new epoch") (false, max_int, -1)
      (node_state v)
  in
  epochs "begin_search" (fun () -> Workspace.begin_search ws ~cells:64) 10;
  epochs "begin_flow" (fun () -> Workspace.begin_flow ws ~nodes:64) 10;
  let allocs () = (Search_stats.snapshot stats).Search_stats.grid_allocs in
  let before = allocs () in
  Workspace.set_dist ws 10 4;
  Workspace.close ws 10;
  Workspace.begin_flow ws ~nodes:50_000;
  Alcotest.(check bool) "the record grew" true (allocs () > before);
  Alcotest.(check bool) "a grown record reads zero" true (all_zero (Workspace.node_record ws));
  Alcotest.check state "after a growth: closed node reads open" (false, max_int, -1)
    (node_state 10);
  epochs "begin_flow after a growth" (fun () -> Workspace.begin_flow ws ~nodes:50_000) 49_999;
  epochs "begin_search after a growth" (fun () -> Workspace.begin_search ws ~cells:64) 10;
  let warm = Workspace.create () in
  List.iteri
    (fun k side ->
      let g = grid side side in
      let obs = Routing_grid.fresh_work_map g in
      for x = 1 to side - 2 do
        if (x + k) mod 3 <> 0 then Obstacle_map.block obs (Point.make x (side / 2))
      done;
      let run workspace =
        let stats = Search_stats.create () in
        let workspace = Option.value workspace ~default:(Workspace.create ~stats ()) in
        let s0 = Search_stats.snapshot (Workspace.stats workspace) in
        let path =
          Astar.search ~workspace ~grid:g ~spec:(free_spec obs)
            ~sources:[ Point.make 0 0 ] ~targets:[ Point.make (side - 1) (side - 1) ] ()
        in
        let s1 = Search_stats.snapshot (Workspace.stats workspace) in
        (Option.map Path.points path, s1.Search_stats.pops - s0.Search_stats.pops)
      in
      let fresh = run None and reused = run (Some warm) in
      if fresh <> reused then Alcotest.failf "grid %dx%d: warm workspace differs" side side)
    [ 12; 60; 7; 150; 30; 150; 9 ]

(* Every array the allocator hands out reads zero at every index: fresh
   from [Workspace.zeroed], and the zeroed int slots (0–1) and the node
   record after a growth, over arrays written with junk before each
   growth; on the mapped path and on the fallback one. *)
let prop_zeroed_reads_zero =
  QCheck.Test.make ~name:"zeroed arrays read zero, fresh and grown" ~count:40
    QCheck.(pair bool (list_of_size Gen.(1 -- 4) (int_range 0 40_000)))
    (fun (mapped, sizes) ->
       Workspace.Private.set_mapping mapped;
       Fun.protect ~finally:(fun () -> Workspace.Private.set_mapping true) @@ fun () ->
       let ws = Workspace.create () in
       let junk (a : Workspace.ints) = Bigarray.Array1.fill a 0x5a5a in
       let check what a =
         if not (all_zero a) then
           QCheck.Test.fail_reportf "%s (%s path) does not read zero" what
             (if mapped then "mapped" else "fallback")
       in
       let dim = Bigarray.Array1.dim in
       List.iter
         (fun n ->
            check (Printf.sprintf "zeroed %d" n) (Workspace.zeroed n);
            (* Ask for [n + 1] more than each array holds, so it grows. *)
            for slot = 0 to 1 do
              let cells = dim (Workspace.scratch_int ws ~slot ~cells:0) + n + 1 in
              let a = Workspace.scratch_int ws ~slot ~cells in
              check (Printf.sprintf "int slot %d at %d cells" slot cells) a;
              junk a
            done;
            let nodes = (dim (Workspace.node_record ws) / 4) + n + 1 in
            Workspace.begin_flow ws ~nodes;
            check (Printf.sprintf "node record at %d nodes" nodes) (Workspace.node_record ws);
            junk (Workspace.node_record ws))
         sizes;
       true)

(* Dropped workspaces give their mappings back: 2,000 workspaces, each
   prepared for Scaled1's grid, with int slot 0 leased and a subarray of
   it filled, are dropped with a full major collection every 100. After
   each, the process's mappings (the lines of /proc/self/maps) and its
   mapped size (VmSize) stay within what 100 live workspaces need, far
   below 2,000 leaked ones; the kernel merges adjacent anonymous mappings
   into one line, so the line count alone would miss a leak. Linux
   only. *)
let test_dropped_workspaces_unmap () =
  if not (Sys.file_exists "/proc/self/maps") then Alcotest.skip ();
  let lines file =
    In_channel.with_open_text file (fun ic ->
      let rec go acc = match In_channel.input_line ic with Some l -> go (l :: acc) | None -> acc in
      go [])
  in
  let vm_kb () =
    List.fold_left
      (fun acc l -> match Scanf.sscanf_opt l "VmSize: %d kB" Fun.id with Some kb -> kb | None -> acc)
      0 (lines "/proc/self/status")
  in
  let cells = Routing_grid.cells (Pacor_designs.Scaled.load_exn 1).Pacor.Problem.grid in
  let per_ws_kb = Workspace.(bytes (let ws = create () in prepare ws ~cells; ws)) / 1024 in
  Gc.full_major ();
  let maps0 = List.length (lines "/proc/self/maps") and vm0 = vm_kb () in
  for k = 1 to 2_000 do
    let ws = Workspace.create () in
    Workspace.prepare ws ~cells;
    let slot = Workspace.scratch_int ws ~slot:0 ~cells in
    Bigarray.Array1.fill (Bigarray.Array1.sub slot 0 1_000) (-1);
    if k mod 100 = 0 then begin
      Gc.full_major ();
      let maps = List.length (lines "/proc/self/maps") - maps0 and vm = vm_kb () - vm0 in
      if maps > 400 then Alcotest.failf "after %d workspaces: %d more mappings" k maps;
      if vm > 100 * per_ws_kb then
        Alcotest.failf "after %d workspaces: %d kB more mapped (one workspace: %d kB)" k vm
          per_ws_kb
    end
  done

(* The owner layer packs its load epoch with the cluster id. With the
   epoch wrapping after two loads, every load must still start with every
   cell free and hold exactly what was occupied since: a wrap that reused
   epoch 1 without zeroing the layer would show the first load's cells
   again. Ids outside [0, 2^30) are refused. *)
let test_owner_epoch_wraps () =
  let g = grid 6 4 in
  let ws = Workspace.create () in
  Workspace.Private.set_owner_epoch_limit ws 2;
  let held () = List.rev (Workspace.fold_owned ws (fun p id acc -> (p.Point.x, p.y, id) :: acc) []) in
  let cells = Alcotest.(list (triple int int int)) in
  for k = 0 to 4 do
    Workspace.load_owners ws g ~reserved:Point.Set.empty;
    Alcotest.check cells (Printf.sprintf "load %d starts free" k) [] (held ());
    Alcotest.(check int)
      (Printf.sprintf "load %d: nothing occupied" k)
      0
      (Obstacle_map.blocked_count (Workspace.occupied ws));
    Workspace.occupy ws ~id:k (Point.make k 1);
    Workspace.occupy ws ~id:(k + 7) (Point.make 5 3);
    Alcotest.check cells (Printf.sprintf "load %d holds its cells" k)
      [ (k, 1, k); (5, 3, k + 7) ] (held ())
  done;
  Alcotest.check_raises "id 2^30 refused"
    (Invalid_argument "Workspace.occupy: cluster id out of range") (fun () ->
      Workspace.occupy ws ~id:(1 lsl 30) (Point.make 0 0));
  Alcotest.check_raises "negative id refused"
    (Invalid_argument "Workspace.occupy: cluster id out of range") (fun () ->
      Workspace.occupy ws ~id:(-1) (Point.make 0 0));
  Alcotest.check_raises "limit 0 refused"
    (Invalid_argument "Workspace.Private.set_owner_epoch_limit: out of range") (fun () ->
      Workspace.Private.set_owner_epoch_limit ws 0)

(* Negotiation's claim counts carry their claim round in the packed claim
   word, and the round wraps after a limit (63 in [route]). A batch that
   never routes whole (a column crossing three rows) runs a claim round
   per full-reroute round; with the rounds wrapping after 1, 2 or 3, both
   modes must return the outcome and counters of the unwrapped run on a
   workspace shared across the runs, and leave its slots zero. A wrap that
   kept an earlier round's counts would block cells nothing claims. *)
let test_claim_round_wraps () =
  let g = grid 5 3 in
  let obs = Routing_grid.fresh_work_map g in
  let edge i a b = { Negotiation.edge_id = i; ends = (a, b) } in
  let edges =
    [ edge 0 (Point.make 0 0) (Point.make 4 0);
      edge 1 (Point.make 0 1) (Point.make 4 1);
      edge 2 (Point.make 0 2) (Point.make 4 2);
      edge 3 (Point.make 2 0) (Point.make 2 2) ]
  in
  let shared = Workspace.create () in
  let run ?round_limit ws mode =
    let config = { Negotiation.default_config with mode } in
    let before = Search_stats.snapshot (Workspace.stats ws) in
    let out =
      match round_limit with
      | None -> Negotiation.route ~workspace:ws ~config ~grid:g ~obstacles:obs edges
      | Some round_limit ->
        Negotiation.Private.route ~round_limit ~workspace:ws ~config ~grid:g ~obstacles:obs edges
    in
    let work = Search_stats.diff (Search_stats.snapshot (Workspace.stats ws)) before in
    (out, { work with Search_stats.grid_allocs = 0 })
  in
  List.iter
    (fun (mode, name) ->
      let want, want_work = run (Workspace.create ()) mode in
      Alcotest.(check bool) (name ^ ": the batch never routes whole") false want.success;
      Alcotest.(check bool) (name ^ ": at least four claim rounds") true
        (want_work.Search_stats.resets - want_work.Search_stats.searches >= 4);
      List.iter
        (fun round_limit ->
          let got, got_work = run ~round_limit shared mode in
          let label = Printf.sprintf "%s, rounds wrap after %d" name round_limit in
          if got <> want then Alcotest.failf "%s: outcome differs" label;
          if got_work <> want_work then
            Alcotest.failf "%s: counters %a, unwrapped %a" label Search_stats.pp got_work
              Search_stats.pp want_work;
          for slot = 0 to 1 do
            if not (all_zero (Workspace.scratch_int shared ~slot ~cells:1)) then
              Alcotest.failf "%s: slot %d not zero after the call" label slot
          done)
        [ 1; 2; 3 ])
    [ (Negotiation.Full_reroute, "full reroute"); (Negotiation.Incremental, "incremental") ];
  Alcotest.check_raises "round limit 0 refused"
    (Invalid_argument "Negotiation.Private.route: round_limit outside [1, 63]") (fun () ->
      ignore (Negotiation.Private.route ~round_limit:0 ~grid:g ~obstacles:obs edges));
  Alcotest.check_raises "gamma 256 refused"
    (Invalid_argument "Negotiation.route: gamma above 255") (fun () ->
      ignore
        (Negotiation.route
           ~config:{ Negotiation.default_config with gamma = 256 }
           ~grid:g ~obstacles:obs edges))

(* ---------- QCheck ---------- *)

let arb_grid_points =
  QCheck.make
    QCheck.Gen.(
      let* n = int_range 2 6 in
      let* pts =
        list_size (return n)
          (let* x = int_range 1 10 and* y = int_range 1 10 in
           return (Point.make x y))
      in
      return (List.sort_uniq Point.compare pts))

let prop_astar_optimal_no_obstacles =
  QCheck.Test.make ~name:"A* equals manhattan without obstacles" ~count:100
    arb_grid_points (fun pts ->
      match pts with
      | a :: b :: _ ->
        let g = grid 12 12 in
        (match shortest ~grid:g ~obstacles:(Routing_grid.fresh_work_map g) a b with
         | Some p -> Path.length p = Point.manhattan a b
         | None -> false)
      | _ -> true)

let prop_mst_router_claims_terminals =
  QCheck.Test.make ~name:"MST router claims all terminals" ~count:50 arb_grid_points
    (fun pts ->
       let g = grid 12 12 in
       match Mst_router.route ~grid:g ~obstacles:(Routing_grid.fresh_work_map g) pts with
       | Some out -> List.for_all (fun t -> Point.Set.mem t out.claimed) pts
       | None -> false)

let prop_lengthen_parity =
  QCheck.Test.make ~name:"lengthen adds an even amount" ~count:100
    (QCheck.pair (QCheck.int_range 2 8) (QCheck.int_range 0 10))
    (fun (len, extra) ->
       let pts = List.init (len + 1) (fun i -> Point.make (i + 2) 10) in
       let path = Path.of_points pts in
       let usable (p : Point.t) = p.x >= 0 && p.x < 30 && p.y >= 0 && p.y < 30 in
       match Detour.lengthen path ~target:(len + extra) ~usable with
       | Some p -> (Path.length p - len) mod 2 = 0 && Path.length p >= len + extra
       | None -> false)

(* Random searches on one long-lived workspace must agree exactly with
   fresh-arrays searches: stale epoch state may never leak into a result. *)
let arb_search_instance =
  QCheck.make
    QCheck.Gen.(
      let* sx = int_range 0 11 and* sy = int_range 0 11 in
      let* tx = int_range 0 11 and* ty = int_range 0 11 in
      let* obstacles = list_size (int_range 0 25) (pair (int_range 0 11) (int_range 0 11)) in
      return ((sx, sy), (tx, ty), obstacles))

let shared_workspace = Workspace.create ()

let prop_workspace_equals_fresh =
  QCheck.Test.make ~name:"workspace search = fresh search" ~count:200
    arb_search_instance (fun ((sx, sy), (tx, ty), obstacles) ->
      let g = grid 12 12 in
      let obs = Routing_grid.fresh_work_map g in
      List.iter (fun (x, y) -> Obstacle_map.block obs (Point.make x y)) obstacles;
      let spec = free_spec obs in
      let source = Point.make sx sy and target = Point.make tx ty in
      let run workspace =
        Astar.search ?workspace ~grid:g ~spec ~sources:[ source ] ~targets:[ target ] ()
      in
      (* The shared workspace carries whatever epoch state the previous
         random instance left behind — exactly the leak being tested. *)
      run (Some shared_workspace) = run None)

let prop_workspace_epoch_isolation =
  QCheck.Test.make ~name:"epochs do not leak across searches" ~count:100
    arb_search_instance (fun ((sx, sy), (tx, ty), _) ->
      let g = grid 12 12 in
      let ws = Workspace.create () in
      let source = Point.make sx sy and target = Point.make tx ty in
      let search ~workspace obs =
        Astar.search ?workspace ~grid:g ~spec:(free_spec obs) ~sources:[ source ]
          ~targets:[ target ] ()
      in
      (* Route, block the found path, route again on the same workspace:
         the second search must match a fresh-workspace search over the
         same (now partially blocked) grid. *)
      let obs = Routing_grid.fresh_work_map g in
      match search ~workspace:(Some ws) obs with
      | None -> QCheck.Test.fail_report "empty grid must route"
      | Some p ->
        List.iter
          (fun q ->
             if not (Point.equal q source || Point.equal q target) then
               Obstacle_map.block obs q)
          (Path.points p);
        search ~workspace:(Some ws) obs = search ~workspace:None obs)

(* Incremental negotiation vs the full-reroute baseline on random congested
   instances: never worse under the (routed count, total length)
   lexicographic order, and byte-identical whenever no round fails (the
   baseline succeeds in one iteration — incremental's first round IS the
   baseline's first round). Instances derive from an integer seed through a
   private LCG, so the property is deterministic regardless of qcheck's
   run-to-run random seed. *)
let prop_incremental_no_worse =
  let instance_of_seed seed =
    let state = ref (seed land 0x3FFFFFFF) in
    let rand bound =
      state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
      !state mod bound
    in
    let w = 12 + rand 4 and h = 12 + rand 4 in
    let obstacles =
      List.init (rand 10) (fun _ -> Point.make (rand w) (rand h))
    in
    let nedges = 3 + rand 5 in
    let edges =
      List.init nedges (fun i ->
        { Negotiation.edge_id = i;
          ends = (Point.make (rand w) (rand h), Point.make (rand w) (rand h)) })
    in
    (w, h, obstacles, edges)
  in
  QCheck.Test.make ~name:"incremental negotiation >= full-reroute baseline" ~count:220
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
       let w, h, obstacles, edges = instance_of_seed seed in
       let g = grid w h in
       let run mode =
         let obs = Routing_grid.fresh_work_map g in
         List.iter (Obstacle_map.block obs) obstacles;
         Negotiation.route
           ~config:{ Negotiation.default_config with mode }
           ~grid:g ~obstacles:obs edges
       in
       let inc = run Negotiation.Incremental in
       let full = run Negotiation.Full_reroute in
       let total out =
         List.fold_left (fun acc (_, p) -> acc + Path.length p) 0 out.Negotiation.paths
       in
       let full_better =
         let ci = List.length inc.Negotiation.paths
         and cf = List.length full.Negotiation.paths in
         cf > ci || (cf = ci && total full < total inc)
       in
       if full_better then
         QCheck.Test.fail_reportf "incremental worse: inc=(%d,%d) full=(%d,%d)"
           (List.length inc.Negotiation.paths) (total inc)
           (List.length full.Negotiation.paths) (total full);
       if full.Negotiation.success && full.Negotiation.iterations = 1 then begin
         (* No round failed: the two modes must coincide exactly. *)
         inc.Negotiation.success
         && inc.Negotiation.iterations = 1
         && List.length inc.Negotiation.paths = List.length full.Negotiation.paths
         && List.for_all2
              (fun (ia, pa) (ib, pb) -> ia = ib && Path.equal pa pb)
              inc.Negotiation.paths full.Negotiation.paths
       end
       else true)

(* Negotiation keeps its per-cell state in workspace scratch slots 0–1,
   which must read zero between calls. A random sequence of calls on one
   shared workspace (both modes, some under an expansion cap that trips
   mid-call, grids shrinking after the first and largest one) must return
   exactly what each call returns on a fresh workspace, and leave the
   two slots zero after every call. *)
let prop_negotiation_workspace_isolation =
  QCheck.Test.make ~name:"negotiation leaves its scratch slots zero" ~count:120
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
       let state = ref (seed land 0x3FFFFFFF) in
       let rand bound =
         state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
         !state mod bound
       in
       let ws = Workspace.create () in
       let calls = 3 + rand 4 in
       for k = 0 to calls - 1 do
         let w = if k = 0 then 18 else 6 + rand 12 in
         let h = if k = 0 then 18 else 6 + rand 12 in
         let g = grid w h in
         let blocked = List.init (rand (w * h / 6)) (fun _ -> Point.make (rand w) (rand h)) in
         let edges =
           List.init (3 + rand 6) (fun i ->
             { Negotiation.edge_id = i;
               ends = (Point.make (rand w) (rand h), Point.make (rand w) (rand h)) })
         in
         let mode = if rand 2 = 0 then Negotiation.Incremental else Negotiation.Full_reroute in
         let limits =
           if rand 3 = 0 then Budget.limits ~max_expansions:(1 + rand 80) ()
           else Budget.no_limits
         in
         let run ws =
           let obs = Routing_grid.fresh_work_map g in
           List.iter (Obstacle_map.block obs) blocked;
           Workspace.set_budget ws (Budget.create limits);
           let out =
             Negotiation.route ~workspace:ws
               ~config:{ Negotiation.default_config with mode }
               ~grid:g ~obstacles:obs edges
           in
           Workspace.set_budget ws (Budget.unlimited ());
           out
         in
         let shared = run ws in
         let fresh = run (Workspace.create ()) in
         if shared <> fresh then
           QCheck.Test.fail_reportf "call %d (%dx%d): shared workspace outcome differs" k w h;
         for slot = 0 to 1 do
           if not (all_zero (Workspace.scratch_int ws ~slot ~cells:1)) then
             QCheck.Test.fail_reportf "call %d (%dx%d): slot %d not zero after the call" k w
               h slot
         done
       done;
       true)

(* The hopelessness certificate is sound: on small random grids, whenever
   the bounded search refuses, the brute-force oracle finds no simple path
   of length >= the bound, and a search that returns a path was not
   refused. The default region covers these grids whole, so the same check
   also runs with a region smaller than the grid, where paths can leave it
   through the hub. *)
let prop_block_cut_sound =
  let gen =
    QCheck.Gen.(
      let* w = int_range 2 6 and* h = int_range 2 6 and* pct = int_range 20 50 in
      let* rolls = list_repeat (w * h) (int_range 0 99) in
      let* s = int_range 0 ((w * h) - 1) and* t = int_range 0 ((w * h) - 1) in
      let* min_length = int_range 0 20 and* cap = int_range 1 12 in
      return (w, h, Array.of_list (List.map (fun r -> r < pct) rolls), s, t, min_length, cap))
  in
  let print (w, _, blocked, s, t, min_length, cap) =
    let row y =
      String.init w (fun x ->
        let i = (y * w) + x in
        if i = s then 'S' else if i = t then 'T' else if blocked.(i) then '#' else '.')
    in
    Printf.sprintf "min_length=%d cap=%d\n%s" min_length cap
      (String.concat "\n" (List.init (Array.length blocked / w) row))
  in
  QCheck.Test.make ~name:"bounded search refuses only hopeless bounds" ~count:400
    (QCheck.make ~print gen)
    (fun (w, h, blocked, s, t, min_length, cap) ->
       let g = grid w h in
       let free i = not blocked.(i) in
       let source = Routing_grid.point_of_index g s
       and target = Routing_grid.point_of_index g t in
       let hopeless () =
         not
           (Path_oracle.exists_at_least ~width:w ~height:h ~free ~source:s ~target:t
              ~min_length)
       in
       let stats = Search_stats.create () in
       let ws = Workspace.create ~stats () in
       let found =
         Bounded_astar.search ~workspace:ws ~grid:g ~usable:free ~source ~target ~min_length ()
       in
       let refused = (Search_stats.snapshot stats).Search_stats.refused = 1 in
       let small_refused =
         match
           Block_cut.max_length (Block_cut.create ~cap ()) ~grid:g
             ~enterable:(fun i -> free i || i = s || i = t) ~source:s ~target:t
         with
         | Some longest -> longest < min_length
         | None -> false
       in
       (not (refused && found <> None))
       && ((not refused) || hopeless ())
       && ((not small_refused) || hopeless ()))

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_astar_optimal_no_obstacles; prop_mst_router_claims_terminals;
      prop_lengthen_parity; prop_rsmt_between_bounds; prop_workspace_equals_fresh;
      prop_workspace_epoch_isolation; prop_incremental_no_worse;
      prop_negotiation_workspace_isolation; prop_block_cut_sound; prop_zeroed_reads_zero ]

let () =
  Alcotest.run "route"
    [ ( "astar",
        [ Alcotest.test_case "straight line" `Quick test_astar_straight_line;
          Alcotest.test_case "around wall" `Quick test_astar_around_wall;
          Alcotest.test_case "fully blocked" `Quick test_astar_blocked_completely;
          Alcotest.test_case "endpoints exempt" `Quick test_astar_endpoints_exempt;
          Alcotest.test_case "multi source/target" `Quick test_astar_multi_source_target;
          Alcotest.test_case "source is target" `Quick test_astar_source_is_target;
          Alcotest.test_case "history cost steers" `Quick test_astar_extra_cost_steers;
          Alcotest.test_case "pinned search counters" `Quick test_search_stats_pinned ] );
      ( "negotiation",
        [ Alcotest.test_case "single edge" `Quick test_negotiation_single_edge;
          Alcotest.test_case "conflicting edges" `Quick test_negotiation_conflicting_edges;
          Alcotest.test_case "shared endpoint" `Quick test_negotiation_shared_endpoint;
          Alcotest.test_case "impossible edge" `Quick test_negotiation_impossible;
          Alcotest.test_case "many parallel" `Quick test_negotiation_many_parallel;
          Alcotest.test_case "deterministic" `Quick test_negotiation_deterministic;
          Alcotest.test_case "disjointness invariant" `Quick
            test_negotiation_paths_disjoint_invariant;
          Alcotest.test_case "keeps shorter tie" `Quick test_negotiation_keeps_shorter_tie ] );
      ( "bounded_astar",
        [ Alcotest.test_case "meets bound" `Quick test_bounded_meets_bound;
          Alcotest.test_case "small bound = shortest" `Quick
            test_bounded_equals_shortest_when_bound_small;
          Alcotest.test_case "respects obstacles" `Quick test_bounded_respects_obstacles;
          Alcotest.test_case "impossible bound" `Quick test_bounded_impossible_bound;
          Alcotest.test_case "visit saturation" `Quick test_bounded_saturation;
          Alcotest.test_case "visit pool sized by appends" `Quick
            test_bounded_pool_sized_by_appends;
          Alcotest.test_case "multi-entry cells, pinned" `Quick test_bounded_multi_entry_pins;
          Alcotest.test_case "refuses Scaled3's pocket" `Quick test_bounded_refuses_pocket ] );
      ( "workspace",
        [ Alcotest.test_case "allocations stay flat" `Quick
            test_workspace_allocs_monotonic;
          Alcotest.test_case "deque order and counters" `Quick
            test_workspace_deque_order;
          Alcotest.test_case "deque growth, wrap and epoch reset" `Quick
            test_workspace_deque_growth_and_reset;
          Alcotest.test_case "deque pops charge the budget" `Quick
            test_workspace_deque_budget;
          Alcotest.test_case "node record stamps" `Quick test_workspace_node_record;
          Alcotest.test_case "dropped workspaces unmap" `Quick test_dropped_workspaces_unmap;
          Alcotest.test_case "owner epoch wraps" `Quick test_owner_epoch_wraps;
          Alcotest.test_case "claim round wraps" `Quick test_claim_round_wraps ] );
      ( "detour",
        [ Alcotest.test_case "lengthen basic" `Quick test_lengthen_basic;
          Alcotest.test_case "already long enough" `Quick test_lengthen_already_long_enough;
          Alcotest.test_case "no room" `Quick test_lengthen_no_room;
          Alcotest.test_case "large target" `Quick test_lengthen_large_target ] );
      ( "mst_router",
        [ Alcotest.test_case "connects all" `Quick test_mst_router_connects_all;
          Alcotest.test_case "singleton" `Quick test_mst_router_singleton;
          Alcotest.test_case "blocked terminal" `Quick test_mst_router_blocked;
          Alcotest.test_case "empty" `Quick test_mst_router_empty ] );
      ( "steiner",
        [ Alcotest.test_case "cross" `Quick test_rsmt_cross;
          Alcotest.test_case "collinear" `Quick test_rsmt_collinear;
          Alcotest.test_case "two points" `Quick test_rsmt_two_points;
          Alcotest.test_case "bounds" `Quick test_rsmt_bounds;
          Alcotest.test_case "duplicates" `Quick test_rsmt_duplicates_rejected;
          Alcotest.test_case "hanan points" `Quick test_hanan_points ] );
      ("properties", qcheck_cases) ]
