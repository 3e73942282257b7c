open Pacor_geom
open Pacor_grid
open Pacor_flow

(* ---------- MCMF ---------- *)

let test_simple_path_flow () =
  (* 0 -> 1 -> 2, capacities 1. *)
  let net = Mcmf.create 3 in
  Mcmf.add_edge net ~src:0 ~dst:1 ~cap:1 ~cost:2;
  Mcmf.add_edge net ~src:1 ~dst:2 ~cap:1 ~cost:3;
  let out = Mcmf.solve net ~source:0 ~sink:2 in
  Alcotest.(check int) "flow" 1 out.flow;
  Alcotest.(check int) "cost" 5 out.cost

let test_parallel_paths_pick_cheaper_first () =
  (* Two disjoint paths with different costs; flow target 1 must take the
     cheap one. *)
  let net = Mcmf.create 4 in
  Mcmf.add_edge net ~src:0 ~dst:1 ~cap:1 ~cost:10;
  Mcmf.add_edge net ~src:1 ~dst:3 ~cap:1 ~cost:0;
  Mcmf.add_edge net ~src:0 ~dst:2 ~cap:1 ~cost:1;
  Mcmf.add_edge net ~src:2 ~dst:3 ~cap:1 ~cost:1;
  let out = Mcmf.solve ~flow_target:1 net ~source:0 ~sink:3 in
  Alcotest.(check int) "flow" 1 out.flow;
  Alcotest.(check int) "cheap path cost" 2 out.cost;
  Alcotest.(check int) "flow on cheap edge" 1 (Mcmf.flow_on net ~src:0 ~dst:2)

let test_rerouting_via_residual () =
  (* Classic case where the second augmentation must push back along the
     first path's residual edge to be optimal. *)
  let net = Mcmf.create 4 in
  (* s=0, t=3; middle edge 1->2 shared. *)
  Mcmf.add_edge net ~src:0 ~dst:1 ~cap:1 ~cost:1;
  Mcmf.add_edge net ~src:0 ~dst:2 ~cap:1 ~cost:10;
  Mcmf.add_edge net ~src:1 ~dst:2 ~cap:1 ~cost:1;
  Mcmf.add_edge net ~src:1 ~dst:3 ~cap:1 ~cost:10;
  Mcmf.add_edge net ~src:2 ~dst:3 ~cap:1 ~cost:1;
  let out = Mcmf.solve net ~source:0 ~sink:3 in
  Alcotest.(check int) "max flow 2" 2 out.flow;
  (* Optimal: 0-1-2-3 (3) + 0-2? cap used... best total = 3 + 0-2(10)+2-3 full
     -> min cost max flow = 0-1-3 (11) + 0-2-3 (11) = 22 vs 0-1-2-3 (3) +
     0-2(10) 2-3 blocked... check against brute value 22. *)
  Alcotest.(check int) "min cost" 22 out.cost

let test_negative_cost_edge () =
  let net = Mcmf.create 3 in
  Mcmf.add_edge net ~src:0 ~dst:1 ~cap:2 ~cost:(-5);
  Mcmf.add_edge net ~src:1 ~dst:2 ~cap:2 ~cost:1;
  let out = Mcmf.solve net ~source:0 ~sink:2 in
  Alcotest.(check int) "flow" 2 out.flow;
  Alcotest.(check int) "cost" (-8) out.cost

let test_stop_threshold () =
  (* Two paths, costs 3 and 8; threshold 5 keeps only the cheap one. *)
  let net = Mcmf.create 4 in
  Mcmf.add_edge net ~src:0 ~dst:1 ~cap:1 ~cost:3;
  Mcmf.add_edge net ~src:1 ~dst:3 ~cap:1 ~cost:0;
  Mcmf.add_edge net ~src:0 ~dst:2 ~cap:1 ~cost:8;
  Mcmf.add_edge net ~src:2 ~dst:3 ~cap:1 ~cost:0;
  let out = Mcmf.solve ~stop_when_cost_reaches:5 net ~source:0 ~sink:3 in
  Alcotest.(check int) "only cheap unit" 1 out.flow;
  Alcotest.(check int) "cost" 3 out.cost

let test_disconnected () =
  let net = Mcmf.create 4 in
  Mcmf.add_edge net ~src:0 ~dst:1 ~cap:1 ~cost:1;
  Mcmf.add_edge net ~src:2 ~dst:3 ~cap:1 ~cost:1;
  let out = Mcmf.solve net ~source:0 ~sink:3 in
  Alcotest.(check int) "no flow" 0 out.flow

let test_decompose_paths () =
  let net = Mcmf.create 5 in
  Mcmf.add_edge net ~src:0 ~dst:1 ~cap:1 ~cost:1;
  Mcmf.add_edge net ~src:1 ~dst:4 ~cap:1 ~cost:1;
  Mcmf.add_edge net ~src:0 ~dst:2 ~cap:1 ~cost:1;
  Mcmf.add_edge net ~src:2 ~dst:3 ~cap:1 ~cost:1;
  Mcmf.add_edge net ~src:3 ~dst:4 ~cap:1 ~cost:1;
  let out = Mcmf.solve net ~source:0 ~sink:4 in
  Alcotest.(check int) "two units" 2 out.flow;
  let paths = Mcmf.decompose_paths net ~source:0 ~sink:4 in
  Alcotest.(check int) "two paths" 2 (List.length paths);
  List.iter
    (fun p ->
       Alcotest.(check int) "starts at source" 0 (List.hd p);
       Alcotest.(check int) "ends at sink" 4 (List.nth p (List.length p - 1)))
    paths

let test_solve_twice_rejected () =
  let net = Mcmf.create 2 in
  Mcmf.add_edge net ~src:0 ~dst:1 ~cap:1 ~cost:1;
  ignore (Mcmf.solve net ~source:0 ~sink:1);
  Alcotest.check_raises "second solve" (Invalid_argument "Mcmf.solve: already solved")
    (fun () -> ignore (Mcmf.solve net ~source:0 ~sink:1))

let test_add_edge_validation () =
  let net = Mcmf.create 2 in
  Alcotest.check_raises "negative cap" (Invalid_argument "Mcmf.add_edge: negative capacity")
    (fun () -> Mcmf.add_edge net ~src:0 ~dst:1 ~cap:(-1) ~cost:0);
  Alcotest.check_raises "bad node" (Invalid_argument "Mcmf.add_edge: bad node") (fun () ->
    Mcmf.add_edge net ~src:0 ~dst:5 ~cap:1 ~cost:0)

(* ---------- Escape routing ---------- *)

let grid10 () = Routing_grid.create ~width:10 ~height:10 ()

let test_escape_single_cluster () =
  let grid = grid10 () in
  let start = Point.make 5 5 in
  let pins = [ Point.make 0 5; Point.make 9 5 ] in
  match
    Escape.route ~grid ~occupied:(Escape_oracle.occupied ~grid (Point.Set.singleton start))
      ~pins
      [ { Escape.cluster_idx = 0; start_cells = [ start ] } ]
  with
  | Error e -> Alcotest.failf "escape failed: %s" e
  | Ok out ->
    Alcotest.(check int) "routed" 1 (List.length out.routed);
    Alcotest.(check (list int)) "no failures" [] out.failed;
    let r = List.hd out.routed in
    Alcotest.(check bool) "ends on a pin" true
      (List.exists (Point.equal r.Escape.pin) pins);
    Alcotest.(check int) "shortest possible" 4 (Path.length r.Escape.path)

let test_escape_two_clusters_disjoint () =
  let grid = grid10 () in
  let s1 = Point.make 3 5 and s2 = Point.make 6 5 in
  let claimed = Point.Set.of_list [ s1; s2 ] in
  let pins = [ Point.make 0 5; Point.make 9 5; Point.make 5 0 ] in
  match
    Escape.route ~grid ~occupied:(Escape_oracle.occupied ~grid claimed) ~pins
      [ { Escape.cluster_idx = 10; start_cells = [ s1 ] };
        { Escape.cluster_idx = 20; start_cells = [ s2 ] } ]
  with
  | Error e -> Alcotest.failf "escape failed: %s" e
  | Ok out ->
    Alcotest.(check int) "both routed" 2 (List.length out.routed);
    (* Vertex-disjointness. *)
    (match out.routed with
     | [ a; b ] ->
       Alcotest.(check bool) "disjoint" false
         (Path.shares_vertex a.Escape.path b.Escape.path);
       Alcotest.(check bool) "different pins" false (Point.equal a.Escape.pin b.Escape.pin)
     | _ -> Alcotest.fail "expected two routes")

let test_escape_avoids_claimed () =
  (* A wall of claimed cells forces a detour. *)
  let grid = grid10 () in
  let start = Point.make 5 5 in
  (* The wall leaves a gap at rows 7-8 (the boundary itself is never
     transit space, so a full-height wall would seal the grid). *)
  let wall = List.init 6 (fun i -> Point.make 3 (i + 1)) in
  let claimed = Point.Set.of_list (start :: wall) in
  let pins = [ Point.make 0 5 ] in
  match
    Escape.route ~grid ~occupied:(Escape_oracle.occupied ~grid claimed) ~pins
      [ { Escape.cluster_idx = 0; start_cells = [ start ] } ]
  with
  | Error e -> Alcotest.failf "escape failed: %s" e
  | Ok out ->
    (match out.routed with
     | [ r ] ->
       Alcotest.(check bool) "longer than manhattan" true (Path.length r.Escape.path > 4);
       List.iter
         (fun w ->
            Alcotest.(check bool) "avoids wall" false (Path.mem r.Escape.path w))
         wall
     | _ -> Alcotest.fail "expected one route")

let test_escape_more_clusters_than_pins () =
  let grid = grid10 () in
  let starts = [ Point.make 3 3; Point.make 6 6; Point.make 3 6 ] in
  let claimed = Point.Set.of_list starts in
  let pins = [ Point.make 0 3; Point.make 0 6 ] in
  let reqs =
    List.mapi (fun i s -> { Escape.cluster_idx = i; start_cells = [ s ] }) starts
  in
  match Escape.route ~grid ~occupied:(Escape_oracle.occupied ~grid claimed) ~pins reqs with
  | Error e -> Alcotest.failf "escape failed: %s" e
  | Ok out ->
    Alcotest.(check int) "two routed" 2 (List.length out.routed);
    Alcotest.(check int) "one failed" 1 (List.length out.failed)

let test_escape_prefers_max_routed_over_length () =
  (* One cluster could grab the only pin cheaply in a way that blocks the
     other; the flow must route both even at higher total cost. Corridor
     grid: two pins far apart. *)
  let grid = Routing_grid.create ~width:12 ~height:5 () in
  let s1 = Point.make 5 2 and s2 = Point.make 6 2 in
  let pins = [ Point.make 0 2; Point.make 11 2 ] in
  match
    Escape.route ~grid
      ~occupied:(Escape_oracle.occupied ~grid (Point.Set.of_list [ s1; s2 ])) ~pins
      [ { Escape.cluster_idx = 0; start_cells = [ s1 ] };
        { Escape.cluster_idx = 1; start_cells = [ s2 ] } ]
  with
  | Error e -> Alcotest.failf "escape failed: %s" e
  | Ok out -> Alcotest.(check int) "both routed" 2 (List.length out.routed)

let test_escape_validation () =
  let grid = grid10 () in
  let bad_pin = Point.make 5 5 (* not boundary *) in
  (match
     Escape.route ~grid
       ~occupied:(Escape_oracle.occupied ~grid Point.Set.empty) ~pins:[ bad_pin ]
       [ { Escape.cluster_idx = 0; start_cells = [ Point.make 2 2 ] } ]
   with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "interior pin accepted");
  (match
     Escape.route ~grid
       ~occupied:(Escape_oracle.occupied ~grid Point.Set.empty) ~pins:[ Point.make 0 5 ]
       [ { Escape.cluster_idx = 0; start_cells = [] } ]
   with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "empty start cells accepted")

let test_escape_total_length () =
  let grid = grid10 () in
  let start = Point.make 5 5 in
  match
    Escape.route ~grid
      ~occupied:(Escape_oracle.occupied ~grid (Point.Set.singleton start))
      ~pins:[ Point.make 0 5 ]
      [ { Escape.cluster_idx = 0; start_cells = [ start ] } ]
  with
  | Error e -> Alcotest.failf "escape failed: %s" e
  | Ok out -> Alcotest.(check int) "total = path length" 5 out.total_length


(* ---------- Maxflow (Dinic) ---------- *)

let test_dinic_simple () =
  let net = Maxflow.create 4 in
  Maxflow.add_edge net ~src:0 ~dst:1 ~cap:3;
  Maxflow.add_edge net ~src:0 ~dst:2 ~cap:2;
  Maxflow.add_edge net ~src:1 ~dst:3 ~cap:2;
  Maxflow.add_edge net ~src:2 ~dst:3 ~cap:3;
  Maxflow.add_edge net ~src:1 ~dst:2 ~cap:1;
  Alcotest.(check int) "max flow" 5 (Maxflow.max_flow net ~source:0 ~sink:3)

let test_dinic_disconnected () =
  let net = Maxflow.create 3 in
  Maxflow.add_edge net ~src:0 ~dst:1 ~cap:5;
  Alcotest.(check int) "no route to sink" 0 (Maxflow.max_flow net ~source:0 ~sink:2)

let test_dinic_min_cut () =
  (* Classic bottleneck: cut isolates the source side. *)
  let net = Maxflow.create 4 in
  Maxflow.add_edge net ~src:0 ~dst:1 ~cap:10;
  Maxflow.add_edge net ~src:1 ~dst:2 ~cap:1;
  Maxflow.add_edge net ~src:2 ~dst:3 ~cap:10;
  let f = Maxflow.max_flow net ~source:0 ~sink:3 in
  Alcotest.(check int) "bottleneck" 1 f;
  let reach = Maxflow.min_cut_reachable net ~source:0 in
  Alcotest.(check bool) "source side" true reach.(0);
  Alcotest.(check bool) "source side includes 1" true reach.(1);
  Alcotest.(check bool) "sink side" false reach.(3)

(* ---------- Cross-checks: Mcmf vs Mcmf_spfa vs Dinic ---------- *)

let random_network seed =
  let rng = ref seed in
  let next () =
    rng := (!rng * 1103515245) + 12345;
    abs !rng
  in
  let n = 4 + (next () mod 5) in
  let edges = ref [] in
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      if src <> dst && next () mod 100 < 40 then
        edges := (src, dst, 1 + (next () mod 4), next () mod 10) :: !edges
    done
  done;
  (n, !edges)

let test_mcmf_agrees_with_spfa () =
  List.iter
    (fun seed ->
       let n, edges = random_network seed in
       let a = Mcmf.create n and b = Mcmf_spfa.create n in
       List.iter
         (fun (src, dst, cap, cost) ->
            Mcmf.add_edge a ~src ~dst ~cap ~cost;
            Mcmf_spfa.add_edge b ~src ~dst ~cap ~cost)
         edges;
       let oa = Mcmf.solve a ~source:0 ~sink:(n - 1) in
       let ob = Mcmf_spfa.solve b ~source:0 ~sink:(n - 1) in
       Alcotest.(check int) (Printf.sprintf "flow seed %d" seed) ob.flow oa.flow;
       Alcotest.(check int) (Printf.sprintf "cost seed %d" seed) ob.cost oa.cost)
    [ 1; 2; 3; 5; 8; 13; 21; 34; 55; 89; 144; 233 ]

let test_mcmf_flow_equals_dinic () =
  List.iter
    (fun seed ->
       let n, edges = random_network seed in
       let a = Mcmf.create n and d = Maxflow.create n in
       List.iter
         (fun (src, dst, cap, cost) ->
            Mcmf.add_edge a ~src ~dst ~cap ~cost;
            Maxflow.add_edge d ~src ~dst ~cap)
         edges;
       let oa = Mcmf.solve a ~source:0 ~sink:(n - 1) in
       let df = Maxflow.max_flow d ~source:0 ~sink:(n - 1) in
       Alcotest.(check int) (Printf.sprintf "max flow seed %d" seed) df oa.flow)
    [ 7; 11; 19; 42; 101; 999 ]

let prop_solvers_agree =
  QCheck.Test.make ~name:"Mcmf and SPFA agree on random networks" ~count:120
    QCheck.small_int (fun seed ->
      let n, edges = random_network (seed + 1) in
      let a = Mcmf.create n and b = Mcmf_spfa.create n in
      List.iter
        (fun (src, dst, cap, cost) ->
           Mcmf.add_edge a ~src ~dst ~cap ~cost;
           Mcmf_spfa.add_edge b ~src ~dst ~cap ~cost)
        edges;
      let oa = Mcmf.solve a ~source:0 ~sink:(n - 1) in
      let ob = Mcmf_spfa.solve b ~source:0 ~sink:(n - 1) in
      oa.flow = ob.flow && oa.cost = ob.cost)

let test_escape_matches_feasibility_bound () =
  (* The min-cost router must route exactly as many clusters as the
     max-flow oracle says are routable. *)
  List.iter
    (fun (pins, starts) ->
       let grid = grid10 () in
       let claimed = Point.Set.of_list starts in
       let reqs =
         List.mapi (fun i s -> { Escape.cluster_idx = i; start_cells = [ s ] }) starts
       in
       let bound = Escape_oracle.feasibility_bound ~grid ~claimed ~pins reqs in
       match Escape.route ~grid ~occupied:(Escape_oracle.occupied ~grid claimed) ~pins reqs with
       | Error e -> Alcotest.failf "escape failed: %s" e
       | Ok out -> Alcotest.(check int) "routed = bound" bound (List.length out.routed))
    [ ([ Point.make 0 5; Point.make 9 5 ], [ Point.make 3 3; Point.make 6 6 ]);
      ([ Point.make 0 3 ], [ Point.make 3 3; Point.make 6 6; Point.make 5 2 ]);
      ([ Point.make 0 2; Point.make 0 4; Point.make 0 6 ],
       [ Point.make 2 2; Point.make 2 4; Point.make 2 6 ]) ]

(* ---------- Mcmf_grid and its CSR oracle ---------- *)

(* The solver's rounds over an explicit CSR (test/mcmf_csr.ml) take any
   arc list, so the hand-made graphs below exercise them there; the
   escape-network tests further down run the implicit network itself. *)

let emit_list arcs f = List.iter (fun (src, dst, cost) -> f ~src ~dst ~cost) arcs

(* Unit caps, 0/1 costs: max flow 2, min cost 4 (0-1-3 + 0-2-3, or the
   residual-equivalent 0-1-2-3 + 0-2..). *)
let diamond_arcs = [ (0, 1, 1); (0, 2, 1); (1, 2, 0); (1, 3, 1); (2, 3, 1) ]

let test_grid_solve_basics () =
  let net = Mcmf_csr.build ~n:4 ~source:0 ~sink:3 ~emit_arcs:(emit_list diamond_arcs) in
  Alcotest.(check int) "nodes" 4 (Mcmf_csr.node_count net);
  Alcotest.(check int) "arcs incl. reverses" 10 (Mcmf_csr.arc_count net);
  let out = Mcmf_csr.solve net in
  Alcotest.(check int) "flow" 2 out.Mcmf_csr.flow;
  Alcotest.(check int) "cost" 4 out.Mcmf_csr.cost;
  Alcotest.(check int) "rounds = augmentations + final empty" 3 out.Mcmf_csr.rounds;
  let paths = Mcmf_csr.decompose_paths net in
  Alcotest.(check int) "two unit paths" 2 (List.length paths);
  List.iter
    (fun p ->
       Alcotest.(check int) "starts at source" 0 (List.hd p);
       Alcotest.(check int) "ends at sink" 3 (List.nth p (List.length p - 1)))
    paths

let test_grid_reset_shares_structure () =
  (* One CSR build serves a solve and two retries. *)
  let net = Mcmf_csr.build ~n:4 ~source:0 ~sink:3 ~emit_arcs:(emit_list diamond_arcs) in
  Alcotest.(check int) "first max flow" 2 (Mcmf_csr.solve net).Mcmf_csr.flow;
  Mcmf_csr.reset net;
  let a = Mcmf_csr.solve net in
  Mcmf_csr.reset net;
  let b = Mcmf_csr.solve net in
  Alcotest.(check int) "flow stable across resets" a.Mcmf_csr.flow b.Mcmf_csr.flow;
  Alcotest.(check int) "cost stable across resets" a.Mcmf_csr.cost b.Mcmf_csr.cost;
  Alcotest.check_raises "second solve without reset"
    (Invalid_argument "Mcmf_csr.solve: already solved") (fun () ->
      ignore (Mcmf_csr.solve net))

let test_grid_build_validation () =
  Alcotest.check_raises "bad cost"
    (Invalid_argument "Mcmf_csr.build: cost must be 0 or 1") (fun () ->
      ignore (Mcmf_csr.build ~n:2 ~source:0 ~sink:1 ~emit_arcs:(emit_list [ (0, 1, 2) ])));
  Alcotest.check_raises "bad node" (Invalid_argument "Mcmf_csr.build: bad node")
    (fun () ->
       ignore (Mcmf_csr.build ~n:2 ~source:0 ~sink:1 ~emit_arcs:(emit_list [ (0, 5, 1) ])));
  (* The emitter runs twice (count pass, fill pass); one that emits
     different arcs per call must be rejected, not silently miswired. *)
  let calls = ref 0 in
  let unstable f =
    incr calls;
    if !calls = 1 then f ~src:0 ~dst:1 ~cost:1 else f ~src:1 ~dst:2 ~cost:1
  in
  Alcotest.check_raises "unstable emitter"
    (Invalid_argument "Mcmf_csr.build: emit_arcs is not deterministic") (fun () ->
      ignore (Mcmf_csr.build ~n:3 ~source:0 ~sink:2 ~emit_arcs:unstable))

let test_grid_budget_starvation () =
  (* An exhausted workspace budget starves the augmentation search: the
     solve stops with partial (here: zero) flow instead of hanging —
     the same degradation chain as the A* stages. *)
  let ws = Pacor_route.Workspace.create () in
  let budget =
    Pacor_route.Budget.create
      (Pacor_route.Budget.limits ~max_expansions:1 ())
  in
  Pacor_route.Budget.arm budget;
  Pacor_route.Workspace.set_budget ws budget;
  let net = Mcmf_csr.build ~n:4 ~source:0 ~sink:3 ~emit_arcs:(emit_list diamond_arcs) in
  let out = Mcmf_csr.solve ~workspace:ws net in
  Alcotest.(check bool) "starved solve finds less than optimum" true
    (out.Mcmf_csr.flow < 2);
  Alcotest.(check bool) "budget reports exhaustion" true
    (Pacor_route.Budget.exhausted budget <> None)

(* A 24x12 grid whose interior is split by an obstacle wall at x = 6,
   with one gap at (6, 5) that is request 0's only start cell. The pins
   all sit on the left edge, so the 160 ordinary cells right of the wall
   can reach a pin only through that start cell, which is not transit
   space: they are dead. Request 1 starts at (2, 2). *)
let walled_instance () =
  let wall =
    List.filter_map
      (fun y -> if y = 5 then None else Some (Rect.make ~x0:6 ~y0:y ~x1:6 ~y1:y))
      (List.init 10 (fun k -> k + 1))
  in
  let grid = Routing_grid.create ~width:24 ~height:12 ~obstacles:wall () in
  let requests =
    [ { Escape.cluster_idx = 0; start_cells = [ Point.make 6 5 ] };
      { Escape.cluster_idx = 1; start_cells = [ Point.make 2 2 ] } ]
  in
  let claimed = Point.Set.of_list [ Point.make 6 5; Point.make 2 2 ] in
  let pins = [ Point.make 0 2; Point.make 0 5; Point.make 0 9 ] in
  (grid, claimed, pins, requests)

let escape_stats ?budget (grid, claimed, pins, requests) =
  let ws = Pacor_route.Workspace.create () in
  Option.iter (Pacor_route.Workspace.set_budget ws) budget;
  let occupied = Escape_oracle.occupied ~grid claimed in
  let out = Escape.route ~workspace:ws ~grid ~occupied ~pins requests in
  (out, Pacor_route.Search_stats.snapshot (Pacor_route.Workspace.stats ws))

let test_grid_dead_nodes_never_settled () =
  (* The cell-level seed marks every node right of the wall dead, and the
     rounds never settle one: an unseeded first round from request 0's
     start cell would sweep the right region out to the pin distance
     before reaching the pin. *)
  let ((grid, claimed, pins, requests) as inst) = walled_instance () in
  let occupied = Escape_oracle.occupied ~grid claimed in
  let roles = Escape.compute_roles ~grid ~occupied ~pins requests in
  let ws = Pacor_route.Workspace.create () in
  let h = Escape.seed_heights ws ~grid ~roles ~pins requests in
  let seed_pops =
    (Pacor_route.Search_stats.snapshot (Pacor_route.Workspace.stats ws))
      .Pacor_route.Search_stats.pops
  in
  let right = ref 0 in
  for x = 7 to 22 do
    for y = 1 to 10 do
      let i = Routing_grid.index grid (Point.make x y) in
      incr right;
      Alcotest.(check bool) "right-region in dead" true (h (2 * i) < 0);
      Alcotest.(check bool) "right-region out dead" true (h ((2 * i) + 1) < 0)
    done
  done;
  Alcotest.(check int) "request 0 is 6 steps from (0, 5)" 6
    (h ((2 * Routing_grid.cells grid) + 0));
  match escape_stats inst with
  | Error e, _ -> Alcotest.fail e
  | Ok out, st ->
    Alcotest.(check int) "both routed" 2 (List.length out.Escape.routed);
    let round_pops = st.Pacor_route.Search_stats.pops - seed_pops in
    Alcotest.(check bool)
      (Printf.sprintf "dead region unsettled (%d round pops, %d dead cells)" round_pops
         !right)
      true (round_pops < 40)

let test_grid_budget_trips_in_seed () =
  (* A budget of three expansions runs out inside the cell-level seed BFS
     of a two-request escape: the route returns without raising, escapes
     nothing, the budget reports exhaustion, and the workspace saw the
     seed plus the one starved round. *)
  let budget =
    Pacor_route.Budget.create (Pacor_route.Budget.limits ~max_expansions:3 ())
  in
  Pacor_route.Budget.arm budget;
  match escape_stats ~budget (walled_instance ()) with
  | Error e, _ -> Alcotest.fail e
  | Ok out, st ->
    Alcotest.(check int) "nothing escaped" 0 (List.length out.Escape.routed);
    Alcotest.(check (list int)) "both failed" [ 0; 1 ] out.Escape.failed;
    Alcotest.(check bool) "budget reports exhaustion" true
      (Pacor_route.Budget.exhausted budget <> None);
    Alcotest.(check int) "seed plus the starved round" 2
      st.Pacor_route.Search_stats.searches

(* Outcome, paths and search counters of one implicit-network solve of
   an escape instance, seeded first as [Escape] seeds every network: one
   more search on the same workspace. [lease] creates the network on the
   solving workspace instead of fresh arrays. *)
let implicit_solve ?(lease = false) ws (grid, claimed, pins, requests) =
  let occupied = Escape_oracle.occupied ~grid claimed in
  let roles = Escape.compute_roles ~grid ~occupied ~pins requests in
  let net =
    Escape.grid_network ?workspace:(if lease then Some ws else None) ~grid ~roles requests
  in
  Mcmf_grid.seed net ~h:(Escape.seed_heights ws ~grid ~roles ~pins requests);
  let out = Mcmf_grid.solve ~workspace:ws net in
  (out, Mcmf_grid.paths net)

let snapshot ws = Pacor_route.Search_stats.snapshot (Pacor_route.Workspace.stats ws)

(* An oracle's unit node-paths (source, request node, then the in/out
   nodes of cells, then the sink) as [Mcmf_grid.paths] reports them: the
   request and its cells, each in/out pair read as one cell. *)
let cell_paths ~cells node_paths =
  let rec dedup = function
    | a :: (b :: _ as tl) when a = b -> dedup tl
    | a :: tl -> a :: dedup tl
    | [] -> []
  in
  List.map
    (function
      | _source :: k :: rest ->
        (k - (2 * cells), dedup (List.filter_map (fun v -> if v < 2 * cells then Some (v / 2) else None) rest))
      | _ -> failwith "cell_paths: a unit path without a request node")
    node_paths

let test_grid_workspace_stats_rounds () =
  (* Per-round instrumentation: each augmentation round is one workspace
     search (epoch bump), pops/settles and arc scans land in the shared
     counters. The solve never searches for a seed itself: a seeded solve
     adds exactly its rounds, and the seed's own search is the caller's. *)
  let ((grid, claimed, pins, requests) as inst) = walled_instance () in
  let ws = Pacor_route.Workspace.create () in
  let (seeded : Mcmf_grid.outcome), _ = implicit_solve ws inst in
  let d = snapshot ws in
  Alcotest.(check int) "seeded: one search per round plus the caller's seed"
    (seeded.rounds + 1) d.Pacor_route.Search_stats.searches;
  Alcotest.(check int) "seeded flow" 2 seeded.flow;
  Alcotest.(check int) "seeded cost" 8 seeded.cost;
  Alcotest.(check bool) "settles counted" true (d.Pacor_route.Search_stats.pops > 0);
  Alcotest.(check bool) "arc scans counted" true (d.Pacor_route.Search_stats.touched > 0);
  let ws = Pacor_route.Workspace.create () in
  let (single : Mcmf_grid.outcome), _ =
    implicit_solve ws (grid, claimed, pins, [ List.nth requests 1 ])
  in
  Alcotest.(check int) "one request routed" 1 single.flow;
  Alcotest.(check int) "cheapest path" 2 single.cost;
  Alcotest.(check int) "one request: one search per round plus the seed" (single.rounds + 1)
    (snapshot ws).Pacor_route.Search_stats.searches

let test_grid_warm_workspace_leases () =
  (* The network leases its flow bits, node states and potentials from the
     solving workspace: on slots a bigger instance left dirty it solves
     exactly like a network on fresh arrays, and a warm re-solve
     allocates nothing. *)
  let ws = Pacor_route.Workspace.create () in
  let big = walled_instance () in
  let small =
    let s1 = Point.make 3 3 and s2 = Point.make 6 6 in
    ( grid10 (),
      Point.Set.of_list [ s1; s2 ],
      [ Point.make 0 3; Point.make 0 6; Point.make 9 5 ],
      [ { Escape.cluster_idx = 0; start_cells = [ s1 ] };
        { Escape.cluster_idx = 1; start_cells = [ s2 ] } ] )
  in
  let check label inst =
    let (fresh : Mcmf_grid.outcome), fresh_paths =
      implicit_solve (Pacor_route.Workspace.create ()) inst
    in
    let (leased : Mcmf_grid.outcome), leased_paths = implicit_solve ~lease:true ws inst in
    Alcotest.(check int) (label ^ " flow") fresh.flow leased.flow;
    Alcotest.(check int) (label ^ " cost") fresh.cost leased.cost;
    Alcotest.(check (list (pair int (list int)))) (label ^ " paths") fresh_paths leased_paths
  in
  check "big" big;
  check "small on dirty slots" small;
  let warm = (snapshot ws).Pacor_route.Search_stats.grid_allocs in
  check "big again" big;
  Alcotest.(check int) "warm re-solve allocates nothing" warm
    (snapshot ws).Pacor_route.Search_stats.grid_allocs

let test_grid_ripup_request_no_regrowth () =
  (* A rip-up round re-solves the escape network with one more request
     node. The node-sized state (search arrays and the network's leased
     potentials and node states) keeps slack for that, so the second
     solve on the same workspace allocates nothing. The added request
     starts next to a pin, so no round of the second solve settles more
     nodes than the first solve's largest: the settle trail, which grows
     by what a round settles, stays put too, and any allocation here is
     node-sized state regrowing. *)
  let grid = Routing_grid.create ~width:40 ~height:30 () in
  let starts = [ Point.make 20 8; Point.make 30 22; Point.make 2 14 ] in
  let requests =
    List.mapi (fun i p -> { Escape.cluster_idx = i; start_cells = [ p ] }) starts
  in
  let pins = List.init 6 (fun k -> Point.make 0 (3 + (4 * k))) in
  let inst reqs = (grid, Point.Set.of_list starts, pins, reqs) in
  let ws = Pacor_route.Workspace.create () in
  let (two : Mcmf_grid.outcome), _ =
    implicit_solve ~lease:true ws (inst (List.filteri (fun i _ -> i < 2) requests))
  in
  Alcotest.(check int) "two requests routed" 2 two.flow;
  let before = (snapshot ws).Pacor_route.Search_stats.grid_allocs in
  let (three : Mcmf_grid.outcome), _ = implicit_solve ~lease:true ws (inst requests) in
  Alcotest.(check int) "three requests routed" 3 three.flow;
  Alcotest.(check int) "one more request allocates nothing" before
    (snapshot ws).Pacor_route.Search_stats.grid_allocs

let test_grid_prepared_seed_no_alloc () =
  (* [Workspace.prepare] leases the escape seed's two int slots, the node
     record and the settle trail's first entries, so the first seeded
     solve on a cold workspace adds no allocation event (its roles and
     network bytes are its own here). *)
  let ((grid, _, _, _) as inst) = walled_instance () in
  let ws = Pacor_route.Workspace.create () in
  Pacor_route.Workspace.prepare ws ~cells:(Routing_grid.cells grid);
  let before = (snapshot ws).Pacor_route.Search_stats.grid_allocs in
  let (out : Mcmf_grid.outcome), _ = implicit_solve ws inst in
  Alcotest.(check int) "both requests routed" 2 out.flow;
  Alcotest.(check int) "a solve right after prepare allocates nothing" before
    (snapshot ws).Pacor_route.Search_stats.grid_allocs

let unit_cost_network seed =
  (* [random_network] variant constrained to the grid solver's domain:
     unit capacities, costs 0 or 1. *)
  let n, edges = random_network seed in
  (n, List.map (fun (src, dst, _cap, cost) -> (src, dst, cost mod 2)) edges)

let test_grid_agrees_with_general_solvers () =
  List.iter
    (fun seed ->
       let n, arcs = unit_cost_network seed in
       let g = Mcmf_csr.build ~n ~source:0 ~sink:(n - 1) ~emit_arcs:(emit_list arcs) in
       let a = Mcmf.create n and d = Maxflow.create n in
       List.iter
         (fun (src, dst, cost) ->
            Mcmf.add_edge a ~src ~dst ~cap:1 ~cost;
            Maxflow.add_edge d ~src ~dst ~cap:1)
         arcs;
       let og = Mcmf_csr.solve g in
       let oa = Mcmf.solve a ~source:0 ~sink:(n - 1) in
       Alcotest.(check int) (Printf.sprintf "flow seed %d" seed) oa.Mcmf.flow
         og.Mcmf_csr.flow;
       Alcotest.(check int) (Printf.sprintf "cost seed %d" seed) oa.Mcmf.cost
         og.Mcmf_csr.cost;
       (* Unthresholded, the flow is a maximum one: the independent Dinic
          solver must agree. *)
       let df = Maxflow.max_flow d ~source:0 ~sink:(n - 1) in
       Alcotest.(check int) (Printf.sprintf "max flow seed %d" seed) df og.Mcmf_csr.flow)
    [ 1; 2; 3; 5; 7; 8; 11; 13; 19; 21; 34; 42; 55; 89; 101; 144; 233; 999 ]

(* ---------- Escape: three-way solver agreement ---------- *)

let route_exn ~grid ~claimed ~pins reqs =
  match Escape.route ~grid ~occupied:(Escape_oracle.occupied ~grid claimed) ~pins reqs with
  | Error e -> Alcotest.failf "escape failed: %s" e
  | Ok out -> out

(* [Escape.route] and the general solvers over the explicit network
   (test/escape_oracle.ml), grid first. *)
let solvers =
  [ ("grid", route_exn);
    ("spfa", Escape_oracle.general_route `Spfa);
    ("dijkstra", Escape_oracle.general_route `Dijkstra) ]

let test_escape_three_way_agreement () =
  (* Instances whose optimum assignment is unique, so all three solvers
     must agree on the full outcome, not just its aggregates. *)
  List.iter
    (fun (pins, starts) ->
       let grid = grid10 () in
       let claimed = Point.Set.of_list starts in
       let reqs =
         List.mapi (fun i s -> { Escape.cluster_idx = i; start_cells = [ s ] }) starts
       in
       let outs =
         List.map (fun (name, route) -> (name, route ~grid ~claimed ~pins reqs)) solvers
       in
       match outs with
       | (_, ref_out) :: rest ->
         List.iter
           (fun (name, out) ->
              Alcotest.(check int) (name ^ ": routed count")
                (List.length ref_out.Escape.routed)
                (List.length out.Escape.routed);
              Alcotest.(check (list int)) (name ^ ": failed set") ref_out.Escape.failed
                out.Escape.failed;
              Alcotest.(check int) (name ^ ": total length") ref_out.Escape.total_length
                out.Escape.total_length)
           rest
       | [] -> assert false)
    [ ([ Point.make 0 5; Point.make 9 5 ], [ Point.make 3 3; Point.make 6 6 ]);
      ([ Point.make 0 3 ], [ Point.make 3 3; Point.make 6 6; Point.make 5 2 ]);
      ([ Point.make 0 2; Point.make 0 4; Point.make 0 6 ],
       [ Point.make 2 2; Point.make 2 4; Point.make 2 6 ]) ]

let test_escape_duplicate_idx_rejected () =
  let grid = grid10 () in
  let s1 = Point.make 3 3 and s2 = Point.make 6 6 in
  match
    Escape.route ~grid
      ~occupied:(Escape_oracle.occupied ~grid (Point.Set.of_list [ s1; s2 ]))
      ~pins:[ Point.make 0 5 ]
      [ { Escape.cluster_idx = 7; start_cells = [ s1 ] };
        { Escape.cluster_idx = 7; start_cells = [ s2 ] } ]
  with
  | Error e ->
    let contains hay needle =
      let nh = String.length hay and nn = String.length needle in
      let rec scan i = i + nn <= nh && (String.sub hay i nn = needle || scan (i + 1)) in
      scan 0
    in
    Alcotest.(check bool) "names the duplicate" true
      (contains e "duplicate cluster_idx 7")
  | Ok _ -> Alcotest.fail "duplicate cluster_idx accepted"

let test_escape_workspace_reuse () =
  (* Same instance, fresh vs shared workspace: identical outcomes, and the
     shared workspace survives for the next solve (epoch isolation). *)
  let grid = grid10 () in
  let starts = [ Point.make 3 3; Point.make 6 6 ] in
  let claimed = Point.Set.of_list starts in
  let pins = [ Point.make 0 3; Point.make 0 6 ] in
  let reqs =
    List.mapi (fun i s -> { Escape.cluster_idx = i; start_cells = [ s ] }) starts
  in
  let fresh = route_exn ~grid ~claimed ~pins reqs in
  let ws = Pacor_route.Workspace.create () in
  let occupied = Escape_oracle.occupied ~grid claimed in
  for _ = 1 to 3 do
    match Escape.route ~workspace:ws ~grid ~occupied ~pins reqs with
    | Error e -> Alcotest.failf "escape failed: %s" e
    | Ok out ->
      Alcotest.(check int) "routed as fresh" (List.length fresh.Escape.routed)
        (List.length out.Escape.routed);
      Alcotest.(check int) "length as fresh" fresh.Escape.total_length
        out.Escape.total_length
  done

let serpentine_grid size =
  (* Vertical walls with alternating end gaps: one long corridor snaking
     through the whole grid. *)
  let walls = ref [] in
  let x = ref 2 in
  while !x <= size - 3 do
    let r =
      if !x mod 4 = 2 then Rect.make ~x0:!x ~y0:1 ~x1:!x ~y1:(size - 3)
      else Rect.make ~x0:!x ~y0:2 ~x1:!x ~y1:(size - 2)
    in
    walls := r :: !walls;
    x := !x + 2
  done;
  Routing_grid.create ~width:size ~height:size ~obstacles:!walls ()

let test_escape_long_path_regression () =
  (* Chip1-scale path length: the old non-tail [collapse] (and a recursive
     decompose walk) would overflow the stack here. All three solvers must
     survive and agree. *)
  let size = 501 in
  let grid = serpentine_grid size in
  let start = Point.make 1 1 in
  let pins = [ Point.make (size - 2) 0 ] in
  let reqs = [ { Escape.cluster_idx = 0; start_cells = [ start ] } ] in
  let claimed = Point.Set.singleton start in
  let outs =
    List.map (fun (name, route) -> (name, route ~grid ~claimed ~pins reqs)) solvers
  in
  List.iter
    (fun (name, out) ->
       Alcotest.(check int) (name ^ ": routed") 1 (List.length out.Escape.routed);
       Alcotest.(check bool) (name ^ ": serpentine-length path") true
         (out.Escape.total_length > 100_000))
    outs;
  match outs with
  | (_, a) :: rest ->
    List.iter
      (fun (name, b) ->
         Alcotest.(check int) (name ^ ": equal length") a.Escape.total_length
           b.Escape.total_length)
      rest
  | [] -> assert false

(* The instances the route and escape benches used to race the solvers
   on: pins across the top boundary, one start cell per request on a low
   row, nothing claimed (bench/main.ml's [escape_instance_rect]). The
   bench fingerprints pinned these (routed, total length) outcomes. *)
let test_escape_bench_instances () =
  List.iter
    (fun (width, height, routed, length) ->
       let grid = Routing_grid.create ~width ~height () in
       let pins = List.init ((width - 2) / 2) (fun i -> Point.make (1 + (2 * i)) 0) in
       let reqs =
         List.init (width / 4) (fun i ->
           { Escape.cluster_idx = i; start_cells = [ Point.make (2 + (3 * i)) (height - 3) ] })
       in
       let claimed = Point.Set.empty in
       let label name = Printf.sprintf "%dx%d %s" width height name in
       List.iter
         (fun (name, route) ->
            let out = route ~grid ~claimed ~pins reqs in
            Alcotest.(check (pair int int)) (label name) (routed, length)
              (List.length out.Escape.routed, out.Escape.total_length))
         solvers;
       Alcotest.(check int) (label "Dinic bound") routed
         (Escape_oracle.feasibility_bound ~grid ~claimed ~pins reqs))
    [ (16, 16, 4, 54); (24, 24, 6, 129); (32, 32, 8, 236); (48, 48, 12, 546) ]

let test_mcmf_long_chain_decompose () =
  (* Deep unit path through the general solver: the decompose walk must be
     iterative. *)
  let n = 200_001 in
  let net = Mcmf.create n in
  for v = 0 to n - 2 do
    Mcmf.add_edge net ~src:v ~dst:(v + 1) ~cap:1 ~cost:1
  done;
  let out = Mcmf.solve net ~source:0 ~sink:(n - 1) in
  Alcotest.(check int) "one unit" 1 out.Mcmf.flow;
  match Mcmf.decompose_paths net ~source:0 ~sink:(n - 1) with
  | [ path ] -> Alcotest.(check int) "full chain" n (List.length path)
  | _ -> Alcotest.fail "expected a single path"

(* ---------- QCheck ---------- *)

let prop_mcmf_flow_conservation =
  (* Random small layered networks: total out-of-source equals into-sink. *)
  let arb =
    QCheck.make
      QCheck.Gen.(
        let* mid = int_range 1 4 in
        let* caps = list_size (return (2 * mid)) (int_range 1 3) in
        let* costs = list_size (return (2 * mid)) (int_range 0 9) in
        return (mid, caps, costs))
  in
  QCheck.Test.make ~name:"random layered network flow sanity" ~count:100 arb
    (fun (mid, caps, costs) ->
       (* nodes: 0 source, 1..mid middles, mid+1 sink. *)
       let n = mid + 2 in
       let net = Mcmf.create n in
       let caps = Array.of_list caps and costs = Array.of_list costs in
       for i = 0 to mid - 1 do
         Mcmf.add_edge net ~src:0 ~dst:(i + 1) ~cap:caps.(i) ~cost:costs.(i);
         Mcmf.add_edge net ~src:(i + 1) ~dst:(mid + 1) ~cap:caps.(mid + i)
           ~cost:costs.(mid + i)
       done;
       let out = Mcmf.solve net ~source:0 ~sink:(mid + 1) in
       let expected =
         let s = ref 0 in
         for i = 0 to mid - 1 do
           s := !s + min caps.(i) caps.(mid + i)
         done;
         !s
       in
       out.flow = expected && out.cost >= 0)


let prop_escape_routed_equals_bound =
  (* On random small grids with random pins/starts, the min-cost router
     always routes exactly the max-flow feasibility bound. *)
  let arb =
    QCheck.make
      QCheck.Gen.(
        let* n_start = int_range 1 4 in
        let* n_pin = int_range 1 4 in
        let* starts =
          list_size (return n_start)
            (let* x = int_range 2 7 and* y = int_range 2 7 in
             return (Point.make x y))
        in
        let* pin_ys = list_size (return n_pin) (int_range 1 8) in
        return (List.sort_uniq Point.compare starts,
                List.sort_uniq Point.compare (List.map (fun y -> Point.make 0 y) pin_ys)))
  in
  QCheck.Test.make ~name:"escape routes exactly the max-flow bound" ~count:60 arb
    (fun (starts, pins) ->
       let grid = grid10 () in
       let claimed = Point.Set.of_list starts in
       let reqs =
         List.mapi (fun i s -> { Escape.cluster_idx = i; start_cells = [ s ] }) starts
       in
       let bound = Escape_oracle.feasibility_bound ~grid ~claimed ~pins reqs in
       match Escape.route ~grid ~occupied:(Escape_oracle.occupied ~grid claimed) ~pins reqs with
       | Error _ -> false
       | Ok out -> List.length out.routed = bound)

type escape_instance = {
  gw : int;
  gh : int;
  obstacles : Point.t list;
  claim_extra : Point.t list;
  gen_pins : Point.t list;
  gen_reqs : Escape.request list;
}

let prop_three_solvers_agree =
  (* Random grids with obstacles, boundary pins, and multi-start requests:
     [Escape.route] and the general Spfa and Dijkstra solvers over the
     explicit network must agree on (routed count, total length), and the
     Dinic bound must equal the routed count. *)
  let gen =
    QCheck.Gen.(
      let* gw = int_range 7 14 and* gh = int_range 7 14 in
      let interior =
        let* x = int_range 1 (gw - 2) and* y = int_range 1 (gh - 2) in
        return (Point.make x y)
      in
      let* n_obs = int_range 0 10 in
      let* obstacles = list_size (return n_obs) interior in
      let* n_pin = int_range 1 5 in
      let* pins =
        list_size (return n_pin)
          (let* side = int_range 0 3 in
           let* x = int_range 0 (gw - 1) and* y = int_range 0 (gh - 1) in
           return
             (match side with
              | 0 -> Point.make 0 y
              | 1 -> Point.make (gw - 1) y
              | 2 -> Point.make x 0
              | _ -> Point.make x (gh - 1)))
      in
      let* n_req = int_range 1 4 in
      let* raw_reqs =
        list_size (return n_req)
          (let* k = int_range 1 3 in
           list_size (return k) interior)
      in
      let* claim_extra =
        let* k = int_range 0 5 in
        list_size (return k) interior
      in
      (* Start cells must not sit on obstacles: starts win the collision. *)
      let start_cells = List.concat raw_reqs in
      let obstacles =
        List.filter (fun o -> not (List.exists (Point.equal o) start_cells)) obstacles
      in
      let gen_reqs =
        List.mapi
          (fun i cells ->
             { Escape.cluster_idx = i; start_cells = List.sort_uniq Point.compare cells })
          raw_reqs
      in
      return
        { gw; gh; obstacles;
          claim_extra;
          gen_pins = List.sort_uniq Point.compare pins;
          gen_reqs })
  in
  let print inst =
    Format.asprintf "%dx%d obstacles=[%a] pins=[%a] reqs=[%a] extra=[%a]" inst.gw inst.gh
      (Format.pp_print_list Point.pp) inst.obstacles
      (Format.pp_print_list Point.pp) inst.gen_pins
      (Format.pp_print_list (fun ppf (r : Escape.request) ->
         Format.fprintf ppf "#%d:%a" r.Escape.cluster_idx
           (Format.pp_print_list Point.pp) r.Escape.start_cells))
      inst.gen_reqs
      (Format.pp_print_list Point.pp) inst.claim_extra
  in
  QCheck.Test.make ~name:"Grid/Spfa/Dijkstra escape solvers agree (+bound)" ~count:220
    (QCheck.make ~print gen) (fun inst ->
      let grid =
        Routing_grid.create ~width:inst.gw ~height:inst.gh
          ~obstacles:(List.map (fun (p : Point.t) ->
            Rect.make ~x0:p.Point.x ~y0:p.Point.y ~x1:p.Point.x ~y1:p.Point.y)
            inst.obstacles)
          ()
      in
      let claimed =
        Point.Set.of_list
          (List.concat_map (fun (r : Escape.request) -> r.Escape.start_cells) inst.gen_reqs
           @ inst.claim_extra)
      in
      let pins = inst.gen_pins and reqs = inst.gen_reqs in
      let aggregates (out : Escape.outcome) = (List.length out.routed, out.total_length) in
      let outcomes =
        match Escape.route ~grid ~occupied:(Escape_oracle.occupied ~grid claimed) ~pins reqs with
        | Error e -> QCheck.Test.fail_reportf "route error: %s" e
        | Ok out ->
          [ aggregates out;
            aggregates (Escape_oracle.general_route `Spfa ~grid ~claimed ~pins reqs);
            aggregates (Escape_oracle.general_route `Dijkstra ~grid ~claimed ~pins reqs) ]
      in
      match outcomes with
      | [ (gr, gl); (sr, sl); (dr, dl) ] ->
        let bound = Escape_oracle.feasibility_bound ~grid ~claimed ~pins reqs in
        if not (gr = sr && sr = dr) then
          QCheck.Test.fail_reportf "routed counts differ: grid=%d spfa=%d dijkstra=%d" gr
            sr dr
        else if not (gl = sl && sl = dl) then
          QCheck.Test.fail_reportf "total lengths differ: grid=%d spfa=%d dijkstra=%d" gl
            sl dl
        else if bound <> gr then
          QCheck.Test.fail_reportf "feasibility bound %d <> routed %d" bound gr
        else true
      | _ -> assert false)

type threshold_network = {
  tn : int;
  tsink : int;
  tarcs : (int * int * int) list;
  threshold : int option;
}

let prop_grid_agrees_under_threshold =
  (* The escape solver's rounds (over the CSR oracle, so any arc list
     goes) against both general solvers on (flow, cost) under the same
     stopping threshold, on unit networks built to hit each solver
     path: a core of [core] nodes (source 0, sink [core - 1]) plus [trap]
     nodes that core arcs lead into but that never lead back (dead once
     seeded), and either a free source or one with a single out-arc (the
     unseeded path). A seeded source sits at [pot(source) = -h(source)],
     so the threshold test exercises the full [d + pot(sink) -
     pot(source)] path cost. *)
  let gen =
    QCheck.Gen.(
      let* core = int_range 4 10 and* trap = int_range 0 4 in
      let* single = bool in
      let tn = core + trap in
      let arc =
        let* src = int_range 0 (tn - 1) and* dst = int_range 0 (tn - 1) in
        let* cost = int_range 0 1 in
        return (src, dst, cost)
      in
      let* m = int_range 0 (3 * tn) in
      let* raw = list_size (return m) arc in
      let* threshold = opt (int_range 0 (core + 2)) in
      let sink = core - 1 in
      let ok (src, dst, _) =
        src <> dst && dst <> 0 && src <> sink
        && (src < core || dst >= core)
        && ((not single) || src <> 0)
      in
      let tarcs = List.filter ok raw in
      let tarcs = if single then (0, 1, 0) :: tarcs else tarcs in
      return { tn; tsink = sink; tarcs = List.rev tarcs; threshold })
  in
  let print t =
    Printf.sprintf "n=%d sink=%d threshold=%s arcs=[%s]" t.tn t.tsink
      (match t.threshold with Some k -> string_of_int k | None -> "none")
      (String.concat "; "
         (List.map (fun (s, d, c) -> Printf.sprintf "%d->%d/%d" s d c) t.tarcs))
  in
  QCheck.Test.make ~name:"Mcmf_grid = Mcmf = SPFA under a cost threshold" ~count:400
    (QCheck.make ~print gen) (fun t ->
      let n = t.tn and sink = t.tsink in
      let g = Mcmf_csr.build ~n ~source:0 ~sink ~emit_arcs:(emit_list t.tarcs) in
      let a = Mcmf.create n and b = Mcmf_spfa.create n in
      List.iter
        (fun (src, dst, cost) ->
          Mcmf.add_edge a ~src ~dst ~cap:1 ~cost;
          Mcmf_spfa.add_edge b ~src ~dst ~cap:1 ~cost)
        t.tarcs;
      let stop_when_cost_reaches = t.threshold in
      let ws = Pacor_route.Workspace.create () in
      if List.length (List.filter (fun (src, _, _) -> src = 0) t.tarcs) >= 2 then begin
        let h = Escape_oracle.split_seed ws ~n ~sink t.tarcs in
        Mcmf_csr.seed g ~h:(fun v -> h.(v))
      end;
      let og = Mcmf_csr.solve ~workspace:ws ?stop_when_cost_reaches g in
      let oa = Mcmf.solve ?stop_when_cost_reaches a ~source:0 ~sink in
      let ob = Mcmf_spfa.solve ?stop_when_cost_reaches b ~source:0 ~sink in
      if og.Mcmf_csr.flow <> oa.Mcmf.flow || og.Mcmf_csr.cost <> oa.Mcmf.cost then
        QCheck.Test.fail_reportf "grid (%d, %d) <> mcmf (%d, %d)" og.Mcmf_csr.flow
          og.Mcmf_csr.cost oa.Mcmf.flow oa.Mcmf.cost
      else if ob.Mcmf_spfa.flow <> oa.Mcmf.flow || ob.Mcmf_spfa.cost <> oa.Mcmf.cost then
        QCheck.Test.fail_reportf "spfa (%d, %d) <> mcmf (%d, %d)" ob.Mcmf_spfa.flow
          ob.Mcmf_spfa.cost oa.Mcmf.flow oa.Mcmf.cost
      else true)

type oracle_instance = {
  ow : int;
  oh : int;
  oobstacles : Point.t list;
  oclaim : Point.t list;
  opins : Point.t list;
  oreqs : Escape.request list;
}

let prop_escape_matches_oracles =
  (* The cell-level seed and the whole route against the split-graph
     seed and the whole-network solve over the explicit CSR network
     (test/escape_oracle.ml), on random grids with obstacles, claimed
     blocks and 2-6 requests. Two thirds of the grids get an obstacle
     wall that splits them into two regions. A third of those get a pin
     on the wall's boundary end whose two boundary neighbours are start
     cells of requests 0 and 1 on either side, so the pin touches both
     regions; another third get two adjacent pins on the ring above the
     wall's end, each touching only a start cell of request 0 or 1 on its
     own side. Adversarial extras, each on about half the instances: an
     obstacle box whose pinless pocket is entered through a start cell
     on its side and holds another request's start cell; a start cell
     walled in by obstacles (no ordinary or pin neighbour); adjacent
     start cells of two requests; a start cell listed by two requests; a
     pin listed twice; a pin sealed off by an obstacle, which no request
     reaches. Some instances also list a pin as a start cell. The seed's
     heights and counters must equal the deque BFS oracle's
     ([Escape_oracle.deque_seed]) on one workspace that serves every
     seed, so its leased slots are always dirty. The route runs on a
     fresh workspace and then twice more on one workspace reused across
     every instance (and so dirty from earlier instances). Every run
     must match the oracle route's paths and search count, and the
     reused runs must match the fresh run on every search counter but
     [grid_allocs] (allocation events measure workspace warmth, not the
     search). The other counters cannot be held to the oracle: its seed
     is a BFS over the node-split graph, which pops two nodes per cell and
     counts no touches. *)
  let gen =
    QCheck.Gen.(
      let* ow = int_range 8 14 and* oh = int_range 8 14 in
      let interior =
        let* x = int_range 1 (ow - 2) and* y = int_range 1 (oh - 2) in
        return (Point.make x y)
      in
      let* wall = int_range 0 2 in
      let* c = int_range 3 (ow - 4) in
      let wall_cells = if wall > 0 then List.init (oh - 2) (fun k -> Point.make c (k + 1)) else [] in
      let* n_obs = int_range 0 8 in
      let* obs = list_size (return n_obs) interior in
      let* n_pin = int_range 1 6 in
      let* pins =
        list_size (return n_pin)
          (let* side = int_range 0 3 in
           let* x = int_range 1 (ow - 2) and* y = int_range 1 (oh - 2) in
           return
             (match side with
              | 0 -> Point.make 0 y
              | 1 -> Point.make (ow - 1) y
              | 2 -> Point.make x 0
              | _ -> Point.make x (oh - 1)))
      in
      let* n_req = int_range 2 6 in
      let* raw =
        list_size (return n_req)
          (let* k = int_range 1 3 in
           list_size (return k) interior)
      in
      let* n_blocks = int_range 0 3 in
      let* blocks =
        list_size (return n_blocks)
          (let* p = interior and* w = int_range 1 3 and* h = int_range 1 2 in
           return
             (List.concat
                (List.init w (fun dx ->
                   List.init h (fun dy -> Point.make (p.Point.x + dx) (p.Point.y + dy))))))
      in
      let* pin_start = bool and* pin_pick = int_range 0 5 and* req_pick = int_range 0 5 in
      let* wall_end = int_range 0 2 in
      let* box = int_range 0 3 and* bx = int_range 1 (ow - 6) and* by = int_range 2 (oh - 6) in
      let* walled = bool and* wx = int_range 2 (ow - 3) and* wy = int_range 2 (oh - 3) in
      let* adjacent = bool and* ax = int_range 1 (ow - 3) and* ay = int_range 1 (oh - 2) in
      let* dup_start = bool and* dup_pin = bool in
      let* sealed = bool and* sx = int_range 1 (ow - 2) in
      let raw = Array.of_list raw in
      let add k p = raw.(k mod n_req) <- p :: raw.(k mod n_req) in
      (* The wall's top end: a pin on the ring fusing two starts across it
         (1), or two adjacent ring pins, one per side (2). *)
      let bridged = wall > 0 && wall_end = 1 and paired = wall > 0 && wall_end = 2 in
      if bridged then begin
        add 0 (Point.make (c - 1) 0);
        add 1 (Point.make (c + 1) 0)
      end;
      let wall_cells =
        if paired then begin
          add 0 (Point.make (c - 1) 1);
          add 1 (Point.make c 1);
          List.filter (fun (p : Point.t) -> p.y > 1) wall_cells
        end
        else wall_cells
      in
      let pins =
        if bridged then Point.make c 0 :: pins
        else if paired then Point.make (c - 1) 0 :: Point.make c 0 :: pins
        else pins
      in
      let pins = if sealed then Point.make sx (oh - 1) :: pins else pins in
      let pins = List.sort_uniq Point.compare pins in
      if pin_start then begin
        let p = List.nth pins (pin_pick mod List.length pins) in
        add req_pick p
      end;
      (* A 4x4 obstacle box around a pinless 2x2 pocket: its left side's
         upper middle cell is a start (a gate into the pocket) when [box]
         is odd, and the pocket holds a start of another request when
         [box >= 2]. *)
      let box_cells =
        if box = 0 then []
        else begin
          let gate = Point.make bx (by + 1) in
          if box land 1 = 1 then add req_pick gate;
          if box >= 2 then add (req_pick + 1) (Point.make (bx + 1) (by + 1));
          List.concat
            (List.init 4 (fun dx ->
               List.filter_map
                 (fun dy ->
                   if (dx = 0 || dx = 3 || dy = 0 || dy = 3)
                      && not (box land 1 = 1 && dx = 0 && dy = 1)
                   then Some (Point.make (bx + dx) (by + dy))
                   else None)
                 [ 0; 1; 2; 3 ]))
        end
      in
      let walled_cells =
        if walled then begin
          add (req_pick + 2) (Point.make wx wy);
          Point.[ make (wx + 1) wy; make (wx - 1) wy; make wx (wy + 1); make wx (wy - 1) ]
        end
        else []
      in
      if adjacent then begin
        add (req_pick + 3) (Point.make ax ay);
        add (req_pick + 4) (Point.make (ax + 1) ay)
      end;
      let raw = Array.map (List.sort_uniq Point.compare) raw in
      if dup_start then raw.(1) <- List.sort_uniq Point.compare (List.hd raw.(0) :: raw.(1));
      let pins = if dup_pin then pins @ [ List.hd pins ] else pins in
      let starts = List.concat (Array.to_list raw) in
      let free_of_starts = List.filter (fun o -> not (List.exists (Point.equal o) starts)) in
      let sealing = if sealed then [ Point.make sx (oh - 2) ] else [] in
      let interior_cell (p : Point.t) = p.x < ow - 1 && p.y < oh - 1 in
      return
        { ow; oh;
          oobstacles = free_of_starts (wall_cells @ obs @ box_cells @ walled_cells @ sealing);
          oclaim = List.filter interior_cell (List.concat blocks);
          opins = pins;
          oreqs =
            Array.to_list
              (Array.mapi (fun i cells -> { Escape.cluster_idx = i; start_cells = cells }) raw) })
  in
  let pp_pts = Format.pp_print_list Point.pp in
  let print t =
    Format.asprintf "%dx%d obstacles=[%a] claim=[%a] pins=[%a] reqs=[%a]" t.ow t.oh pp_pts
      t.oobstacles pp_pts t.oclaim pp_pts t.opins
      (Format.pp_print_list (fun ppf (r : Escape.request) ->
         Format.fprintf ppf "#%d:%a" r.Escape.cluster_idx pp_pts r.Escape.start_cells))
      t.oreqs
  in
  let seed_ws = Pacor_route.Workspace.create () in
  let reused_ws = Pacor_route.Workspace.create () in
  let fresh () = Pacor_route.Workspace.create () in
  let module S = Pacor_route.Search_stats in
  let snap ws = S.snapshot (Pacor_route.Workspace.stats ws) in
  let work (s : S.snapshot) = { s with S.grid_allocs = 0 } in
  let same_outcome (a : Escape.outcome) (b : Escape.outcome) =
    let key (e : Escape.routed) = (e.idx, e.start_cell, e.pin, Path.points e.path) in
    List.map key a.routed = List.map key b.routed
    && a.failed = b.failed && a.total_length = b.total_length
  in
  QCheck.Test.make ~name:"escape seed and route match the split-graph oracles"
    ~count:300 (QCheck.make ~print gen) (fun t ->
      let grid =
        Routing_grid.create ~width:t.ow ~height:t.oh
          ~obstacles:
            (List.map
               (fun (p : Point.t) -> Rect.make ~x0:p.x ~y0:p.y ~x1:p.x ~y1:p.y)
               t.oobstacles)
          ()
      in
      let claimed =
        Point.Set.of_list
          (List.concat_map (fun (r : Escape.request) -> r.start_cells) t.oreqs @ t.oclaim)
      in
      let pins = t.opins and reqs = t.oreqs in
      let occupied = Escape_oracle.occupied ~grid claimed in
      let roles = Escape.compute_roles ~grid ~occupied ~pins reqs in
      let seed_before = snap seed_ws in
      let h = Escape.seed_heights seed_ws ~grid ~roles ~pins reqs in
      let seed_work = work (S.diff (snap seed_ws) seed_before) in
      let h_oracle = Escape_oracle.escape_split_seed (fresh ()) ~grid ~roles reqs in
      let bad_node = ref (-1) in
      Array.iteri (fun v hv -> if !bad_node < 0 && h v <> hv then bad_node := v) h_oracle;
      if !bad_node >= 0 then
        QCheck.Test.fail_reportf "seed differs at node %d: cell BFS %d, split graph %d"
          !bad_node (h !bad_node) h_oracle.(!bad_node);
      let deque_ws = fresh () in
      let h_deque = Escape_oracle.deque_seed deque_ws ~grid ~roles ~pins reqs in
      Array.iteri
        (fun v hv ->
          if h v <> hv then
            QCheck.Test.fail_reportf "seed differs at node %d: %d, deque oracle %d" v (h v) hv)
        h_deque;
      if seed_work <> work (snap deque_ws) then
        QCheck.Test.fail_reportf "seed charged %a, deque oracle %a" S.pp seed_work S.pp
          (work (snap deque_ws));
      let ws_oracle = fresh () in
      let oracle = Escape_oracle.route ws_oracle ~grid ~claimed ~pins reqs in
      let oracle_searches = (snap ws_oracle).S.searches in
      let run label ws =
        let before = snap ws in
        let occupied = Escape_oracle.occupied ~grid claimed in
        match Escape.route ~workspace:ws ~grid ~occupied ~pins reqs with
        | Error e -> QCheck.Test.fail_reportf "%s: route error: %s" label e
        | Ok out ->
          let w = work (S.diff (snap ws) before) in
          if not (same_outcome out oracle) then
            QCheck.Test.fail_reportf "%s: routes differ from the oracle route" label;
          if w.S.searches <> oracle_searches then
            QCheck.Test.fail_reportf "%s: searches %d <> oracle %d" label w.S.searches
              oracle_searches;
          w
      in
      let fresh_work = run "fresh workspace" (fresh ()) in
      List.iter
        (fun label ->
          let w = run label reused_ws in
          if w <> fresh_work then
            QCheck.Test.fail_reportf "%s: search work %a <> fresh workspace %a" label S.pp
              w S.pp fresh_work)
        [ "reused workspace, first run"; "reused workspace, second run" ];
      true)

type implicit_instance = {
  iw : int;
  ih : int;
  iobstacles : Point.t list;
  iclaim : Point.t list;
  ipins : Point.t list;
  ireqs : Escape.request list;
  ibudget : int;
}

let prop_implicit_network_matches_csr =
  (* The implicit network against the CSR oracle built from
     [Escape_oracle.emit_network] (test/mcmf_csr.ml): every node's
     residual row (heads, costs, capacities, in order) before and after
     the solve, and the outcome, paths and every search counter of the
     solve and of a solve under a tight expansion budget, which must trip
     at the same pop with the same partial flow.
     The paths are [Mcmf_grid.paths]' walk against the oracle's node
     paths read as cells ([cell_paths]).
     Random grids with obstacles, claimed blocks and 1-6 requests,
     including 1xk and kx1 grids, a start cell listed twice in the first
     request and a pin listed as a start cell by another, a start cell
     two requests share (their units leave it in request order), and a
     request whose every start cell is a pin (no live start). *)
  let gen =
    QCheck.Gen.(
      let* shape = int_range 0 3 in
      let* k = int_range 2 12 and* a = int_range 5 12 and* b = int_range 5 12 in
      let iw, ih = match shape with 0 -> (1, k) | 1 -> (k, 1) | _ -> (a, b) in
      let cell =
        let* x = int_range 0 (iw - 1) and* y = int_range 0 (ih - 1) in
        return (Point.make x y)
      in
      let interior =
        if iw < 3 || ih < 3 then cell
        else
          let* x = int_range 1 (iw - 2) and* y = int_range 1 (ih - 2) in
          return (Point.make x y)
      in
      let boundary =
        let* side = int_range 0 3 and* x = int_range 0 (iw - 1) and* y = int_range 0 (ih - 1) in
        return
          (match side with
           | 0 -> Point.make 0 y
           | 1 -> Point.make (iw - 1) y
           | 2 -> Point.make x 0
           | _ -> Point.make x (ih - 1))
      in
      let* n_obs = int_range 0 8 and* n_pin = int_range 1 6 and* n_req = int_range 1 6 in
      let* obs = list_size (return n_obs) interior in
      let* pins = list_size (return n_pin) boundary in
      let* raw =
        list_size (return n_req)
          (let* k = int_range 1 3 in
           list_size (return k) (if iw < 3 || ih < 3 then cell else interior))
      in
      let* n_blocks = int_range 0 3 in
      let* blocks =
        list_size (return n_blocks)
          (let* p = interior and* w = int_range 1 3 and* h = int_range 1 2 in
           return
             (List.concat
                (List.init w (fun dx ->
                   List.init h (fun dy -> Point.make (p.Point.x + dx) (p.Point.y + dy))))))
      in
      let* dup = bool and* pin_start = bool and* share = bool and* pinned_req = bool in
      let* pick = int_range 0 5 and* ibudget = int_range 1 80 in
      let pins = List.sort_uniq Point.compare pins in
      let pin_at j = List.nth pins (j mod List.length pins) in
      let raw = Array.of_list raw in
      let other = if n_req = 1 then 0 else 1 + (pick mod (n_req - 1)) in
      if share && n_req >= 2 then raw.(1) <- raw.(1) @ [ List.hd raw.(0) ];
      if dup then raw.(0) <- List.hd raw.(0) :: raw.(0);
      if pin_start then raw.(other) <- pin_at pick :: raw.(other);
      if pinned_req then raw.(n_req - 1) <- [ pin_at (pick + 1); pin_at (pick + 1) ];
      let starts = List.concat (Array.to_list raw) in
      let free_of_starts = List.filter (fun o -> not (List.exists (Point.equal o) starts)) in
      let in_grid (p : Point.t) = p.x < iw && p.y < ih in
      return
        { iw; ih;
          iobstacles = free_of_starts obs;
          iclaim = List.filter in_grid (List.concat blocks);
          ipins = pins;
          ireqs =
            Array.to_list
              (Array.mapi (fun i cells -> { Escape.cluster_idx = i; start_cells = cells }) raw);
          ibudget })
  in
  let pp_pts = Format.pp_print_list Point.pp in
  let print t =
    Format.asprintf "%dx%d obstacles=[%a] claim=[%a] pins=[%a] reqs=[%a] budget=%d" t.iw t.ih
      pp_pts t.iobstacles pp_pts t.iclaim pp_pts t.ipins
      (Format.pp_print_list (fun ppf (r : Escape.request) ->
         Format.fprintf ppf "#%d:%a" r.Escape.cluster_idx pp_pts r.Escape.start_cells))
      t.ireqs t.ibudget
  in
  QCheck.Test.make ~name:"implicit escape network = CSR oracle (rows, paths, counters)"
    ~count:500 (QCheck.make ~print gen) (fun t ->
      let grid =
        Routing_grid.create ~width:t.iw ~height:t.ih
          ~obstacles:
            (List.map
               (fun (p : Point.t) -> Rect.make ~x0:p.x ~y0:p.y ~x1:p.x ~y1:p.y)
               t.iobstacles)
          ()
      in
      let reqs = t.ireqs and pins = t.ipins in
      let claimed =
        Point.Set.of_list
          (List.concat_map (fun (r : Escape.request) -> r.start_cells) reqs @ t.iclaim)
      in
      let occupied = Escape_oracle.occupied ~grid claimed in
      let roles = Escape.compute_roles ~grid ~occupied ~pins reqs in
      let cells = Routing_grid.cells grid in
      let nreq = List.length reqs in
      let n = (2 * cells) + nreq + 2 in
      let arcs = Escape_oracle.network_arcs ~grid ~roles reqs in
      let csr () =
        Mcmf_csr.build ~n ~source:(n - 2) ~sink:(n - 1) ~emit_arcs:(emit_list arcs)
      in
      let implicit () = Escape.grid_network ~grid ~roles reqs in
      let same_rows stage imp oracle =
        for v = 0 to n - 1 do
          if Mcmf_grid.row imp v <> Mcmf_csr.row oracle v then
            QCheck.Test.fail_reportf "%s: row of node %d differs from the CSR" stage v
        done
      in
      let workspace budget =
        let ws = Pacor_route.Workspace.create () in
        Option.iter
          (fun max_expansions ->
            let b = Pacor_route.Budget.create (Pacor_route.Budget.limits ~max_expansions ()) in
            Pacor_route.Budget.arm b;
            Pacor_route.Workspace.set_budget ws b)
          budget;
        ws
      in
      let beta = (4 * cells) + 16 in
      let solve_both ?budget label =
        let imp = implicit () and oracle = csr () in
        if budget = None then same_rows (label ^ " before the solve") imp oracle;
        let ws = workspace budget and ws' = workspace budget in
        Mcmf_grid.seed imp ~h:(Escape.seed_heights ws ~grid ~roles ~pins reqs);
        Mcmf_csr.seed oracle ~h:(Escape.seed_heights ws' ~grid ~roles ~pins reqs);
        let a = Mcmf_grid.solve ~workspace:ws ~stop_when_cost_reaches:beta imp in
        let b = Mcmf_csr.solve ~workspace:ws' ~stop_when_cost_reaches:beta oracle in
        if (a.flow, a.cost, a.rounds) <> (b.flow, b.cost, b.rounds) then
          QCheck.Test.fail_reportf "%s: flow/cost/rounds (%d, %d, %d) <> CSR (%d, %d, %d)" label
            a.flow a.cost a.rounds b.flow b.cost b.rounds;
        if snapshot ws <> snapshot ws' then
          QCheck.Test.fail_reportf "%s: search counters differ: %a vs %a" label
            Pacor_route.Search_stats.pp (snapshot ws) Pacor_route.Search_stats.pp (snapshot ws');
        same_rows (label ^ " after the solve") imp oracle;
        if Mcmf_grid.paths imp <> cell_paths ~cells (Mcmf_csr.decompose_paths oracle) then
          QCheck.Test.fail_reportf "%s: paths differ" label
      in
      solve_both "solve";
      solve_both ~budget:t.ibudget "budgeted solve";
      true)

type seed_instance = {
  sw : int;
  sh : int;
  sobstacles : Point.t list;
  sclaim : Point.t list;
  spins : Point.t list;
  sreqs : Escape.request list;
  sbudget : int option;
}

(* Escape instances for the seed properties: 1xk, kx1 and 5-12 x 5-12
   grids with obstacles, boundary pins and 1-5 requests. On grids of at
   least 5x5 a request may sit in a claimed pocket: its first start cell
   is ringed by its eight claimed neighbours, with one side left open or
   none. One instance in five on such grids is sealed: every request is
   one start cell in a closed pocket away from the boundary, so no
   request reaches a pin and the source is dead. A pin may also be listed
   as a start cell, a ring cell may be one, and a request may list a
   start cell twice or share one with another. [sbudget] is an expansion cap from 0 to one more than
   the cell count, or none. *)
let seed_instance_gen =
  QCheck.Gen.(
    let* shape = int_range 0 3 in
    let* k = int_range 2 12 and* a = int_range 5 12 and* b = int_range 5 12 in
    let sw, sh = match shape with 0 -> (1, k) | 1 -> (k, 1) | _ -> (a, b) in
    let roomy = sw >= 5 && sh >= 5 in
    let cell =
      let* x = int_range 0 (sw - 1) and* y = int_range 0 (sh - 1) in
      return (Point.make x y)
    in
    let inset m =
      let* x = int_range m (sw - 1 - m) and* y = int_range m (sh - 1 - m) in
      return (Point.make x y)
    in
    let interior = if roomy then inset 1 else cell in
    let boundary =
      let* side = int_range 0 3 and* x = int_range 0 (sw - 1) and* y = int_range 0 (sh - 1) in
      return
        (match side with
         | 0 -> Point.make 0 y
         | 1 -> Point.make (sw - 1) y
         | 2 -> Point.make x 0
         | _ -> Point.make x (sh - 1))
    in
    let* n_obs = int_range 0 8 and* n_pin = int_range 1 6 and* n_req = int_range 1 5 in
    let* obs = list_size (return n_obs) interior in
    let* pins = list_size (return n_pin) boundary in
    let* raw =
      list_size (return n_req)
        (let* k = int_range 1 3 in
         list_size (return k) interior)
    in
    let* pockets = list_size (return n_req) (int_range 0 3)
    and* exits = list_size (return n_req) (int_range 0 4)
    and* centers = list_size (return n_req) (if roomy then inset 2 else cell) in
    let* sealed = map (fun r -> roomy && r = 0) (int_range 0 4) in
    let* pin_start = bool and* pick = int_range 0 5 in
    let* ring_start = opt boundary and* dup = bool and* share = bool in
    let* sbudget =
      let* on = bool in
      if on then map Option.some (int_range 0 ((sw * sh) + 1)) else return None
    in
    let pins = List.sort_uniq Point.compare pins in
    let ring (c : Point.t) exit =
      List.filter_map
        (fun (dx, dy, d) ->
          if d = exit then None else Some (Point.make (c.x + dx) (c.y + dy)))
        [ (1, 0, 0); (-1, 0, 1); (0, 1, 2); (0, -1, 3);
          (1, 1, -1); (-1, 1, -1); (1, -1, -1); (-1, -1, -1) ]
    in
    let reqs, rings =
      List.split
        (List.map2
           (fun (cells, (kind, exit)) c ->
             if sealed then ([ c ], ring c (-1))
             else if roomy && kind >= 2 then
               (c :: cells, ring c (if kind = 2 then -1 else exit))
             else (cells, []))
           (List.combine raw (List.combine pockets exits))
           centers)
    in
    let reqs = Array.of_list reqs in
    let add k p = reqs.(k mod n_req) <- p :: reqs.(k mod n_req) in
    if pin_start then add pick (List.nth pins (pick mod List.length pins));
    Option.iter (add (pick + 1)) ring_start;
    if share then add (pick + 2) (List.hd reqs.(pick mod n_req));
    if dup then add pick (List.hd reqs.(pick mod n_req));
    let starts = List.concat (Array.to_list reqs) in
    return
      { sw; sh;
        sobstacles = List.filter (fun o -> not (List.exists (Point.equal o) starts)) obs;
        sclaim = List.concat rings;
        spins = pins;
        sreqs =
          Array.to_list
            (Array.mapi (fun i cells -> { Escape.cluster_idx = i; start_cells = cells }) reqs);
        sbudget })

let print_seed_instance t =
  let pp_pts = Format.pp_print_list Point.pp in
  Format.asprintf "%dx%d obstacles=[%a] claim=[%a] pins=[%a] reqs=[%a] budget=%s" t.sw t.sh
    pp_pts t.sobstacles pp_pts t.sclaim pp_pts t.spins
    (Format.pp_print_list (fun ppf (r : Escape.request) ->
       Format.fprintf ppf "#%d:%a" r.Escape.cluster_idx pp_pts r.Escape.start_cells))
    t.sreqs
    (match t.sbudget with Some b -> string_of_int b | None -> "none")

(* Grid and roles of a seed instance. *)
let seed_instance_roles t =
  let grid =
    Routing_grid.create ~width:t.sw ~height:t.sh
      ~obstacles:
        (List.map (fun (p : Point.t) -> Rect.make ~x0:p.x ~y0:p.y ~x1:p.x ~y1:p.y) t.sobstacles)
      ()
  in
  let claimed =
    Point.Set.of_list
      (List.concat_map (fun (r : Escape.request) -> r.start_cells) t.sreqs @ t.sclaim)
  in
  let occupied = Escape_oracle.occupied ~grid claimed in
  (grid, Escape.compute_roles ~grid ~occupied ~pins:t.spins t.sreqs)

(* A workspace charged against an armed expansion cap of [b] (0 allowed),
   or unlimited. *)
let capped_workspace b =
  let ws = Pacor_route.Workspace.create () in
  Option.iter
    (fun b ->
      let budget =
        Pacor_route.Budget.create
          { Pacor_route.Budget.timeout_s = None; max_expansions = Some b; max_iterations = None }
      in
      Pacor_route.Budget.arm budget;
      Pacor_route.Workspace.set_budget ws budget)
    b;
  ws

(* A budget's state: its exhaustion and the ticks it still grants, up to
   [limit] + 1. Draws those ticks. *)
let budget_state ws limit =
  let b = Pacor_route.Workspace.budget ws in
  let ex = Pacor_route.Budget.exhausted b in
  let k = ref 0 in
  while !k <= limit && Pacor_route.Budget.tick b do incr k done;
  (ex, !k)

(* Search work of a counter delta: every counter but [grid_allocs], which
   measures workspace growth, not the search. *)
let search_work (s : Pacor_route.Search_stats.snapshot) =
  { s with Pacor_route.Search_stats.grid_allocs = 0 }

let prop_flat_seed_matches_deque_oracle =
  (* The flat leased-array BFS of [Escape.seed_heights] against the
     deque BFS on workspace stamps it replaced
     ([Escape_oracle.deque_seed]): every node's height, the search
     counters (but [grid_allocs]) and, under expansion caps of 0 up to
     past the cell count, the point where the budget trips. A budget's
     state is its exhaustion and the ticks it still grants. *)
  QCheck.Test.make ~name:"flat seed BFS = deque oracle (heights, counters, budget)" ~count:500
    (QCheck.make ~print:print_seed_instance seed_instance_gen) (fun t ->
      let grid, roles = seed_instance_roles t in
      let n = (2 * Routing_grid.cells grid) + List.length t.sreqs + 2 in
      let ws = capped_workspace t.sbudget and ws' = capped_workspace t.sbudget in
      let h = Escape.seed_heights ws ~grid ~roles ~pins:t.spins t.sreqs in
      let h_oracle = Escape_oracle.deque_seed ws' ~grid ~roles ~pins:t.spins t.sreqs in
      for v = 0 to n - 1 do
        if h v <> h_oracle.(v) then
          QCheck.Test.fail_reportf "height of node %d: flat %d, deque %d" v (h v) h_oracle.(v)
      done;
      let work ws = search_work (snapshot ws) in
      if work ws <> work ws' then
        QCheck.Test.fail_reportf "counters: flat %a, deque %a" Pacor_route.Search_stats.pp
          (work ws) Pacor_route.Search_stats.pp (work ws');
      let limit = (t.sw * t.sh) + 2 in
      let ex, a = budget_state ws limit and ex', b = budget_state ws' limit in
      if ex <> ex' then QCheck.Test.fail_report "budget exhaustion differs";
      if a <> b then QCheck.Test.fail_reportf "budget grants %d more ticks, deque %d" a b;
      true)

let prop_lazy_seed_installs_on_touch =
  (* Potentials are installed on first touch. Over a counting [h], each
     node is evaluated at most once per solve, every settled node of a
     seeded solve is evaluated, and every evaluated node is the source,
     the sink or the head of an arc out of a node some round settled
     (each round's settled set is read off the workspace trail when
     [alive] is polled, and after the last round). The same instance
     then solves on one workspace reused across instances, whose node
     record's potential fields (left dirty by the earlier solves) are
     overwritten with junk after the network is created, and on the CSR
     oracle seeded eagerly: paths,
     flow, cost, rounds and every counter but [grid_allocs] must match
     the fresh solve. Sealed instances have a dead source.
     Then each request alone goes through [Escape.route], whose cell BFS
     must equal the CSR oracle's unseeded 0-1-BFS rounds
     ([Escape_oracle.route]) in cells and in every counter but
     [grid_allocs], also with [alive] turning false before the first or
     the second round; for the first request, under every expansion cap
     from 0 to two past the unbudgeted pops, the budget's state must
     match too. *)
  let reused = Pacor_route.Workspace.create () in
  let module S = Pacor_route.Search_stats in
  QCheck.Test.make ~name:"lazy seed: installs on touch, dirty slots = fresh = eager CSR"
    ~count:400 (QCheck.make ~print:print_seed_instance seed_instance_gen) (fun t ->
      let grid, roles = seed_instance_roles t in
      let reqs = t.sreqs and pins = t.spins in
      let cells = Routing_grid.cells grid in
      let nreq = List.length reqs in
      let n = (2 * cells) + nreq + 2 in
      let source = n - 2 and sink = n - 1 in
      let beta = (4 * cells) + 16 in
      let check () =
        (* Fresh workspace, counting every evaluation of [h]. *)
        let ws = Pacor_route.Workspace.create () in
        let net = Escape.grid_network ~workspace:ws ~grid ~roles reqs in
        let evals = Array.make n 0 in
        let h = Escape.seed_heights ws ~grid ~roles ~pins reqs in
        Mcmf_grid.seed net ~h:(fun v -> evals.(v) <- evals.(v) + 1; h v);
        let settled = Array.make n false in
        let note_settled () =
          for k = 0 to Pacor_route.Workspace.trail_length ws - 1 do
            settled.(Pacor_route.Workspace.trail_get ws k) <- true
          done
        in
        let a =
          Mcmf_grid.solve ~alive:(fun () -> note_settled (); true) ~workspace:ws
            ~stop_when_cost_reaches:beta net
        in
        note_settled ();
        let reachable = Array.make n false in
        reachable.(source) <- true;
        reachable.(sink) <- true;
        Array.iteri
          (fun u s ->
            if s then List.iter (fun (v, _, _) -> reachable.(v) <- true) (Mcmf_grid.row net u))
          settled;
        Array.iteri
          (fun v e ->
            if e > 1 then QCheck.Test.fail_reportf "node %d evaluated %d times" v e;
            if e = 1 && not reachable.(v) then
              QCheck.Test.fail_reportf "node %d evaluated but no round touched it" v;
            if settled.(v) && e = 0 then
              QCheck.Test.fail_reportf "settled node %d never evaluated" v)
          evals;
        let a_paths = Mcmf_grid.paths net in
        let a_work = search_work (snapshot ws) in
        (* One workspace reused dirty across instances, junk potentials:
           an earlier solve left the record's potential fields dirty, and
           they are overwritten with junk on top. *)
        let before = snapshot reused in
        let net = Escape.grid_network ~workspace:reused ~grid ~roles reqs in
        Pacor_route.Workspace.prepare reused ~cells;
        let record = Pacor_route.Workspace.node_record reused in
        for v = 0 to n - 1 do
          record.{(4 * v) + 3} <- 0x1e3c5a
        done;
        Mcmf_grid.seed net ~h:(Escape.seed_heights reused ~grid ~roles ~pins reqs);
        let b = Mcmf_grid.solve ~workspace:reused ~stop_when_cost_reaches:beta net in
        let b_paths = Mcmf_grid.paths net in
        let b_work = search_work (S.diff (snapshot reused) before) in
        (* The CSR oracle, seeded eagerly (every node's [h] read up front). *)
        let ws' = Pacor_route.Workspace.create () in
        let oracle =
          Mcmf_csr.build ~n ~source ~sink
            ~emit_arcs:(emit_list (Escape_oracle.network_arcs ~grid ~roles reqs))
        in
        Mcmf_csr.seed oracle ~h:(Escape.seed_heights ws' ~grid ~roles ~pins reqs);
        let c = Mcmf_csr.solve ~workspace:ws' ~stop_when_cost_reaches:beta oracle in
        let c_paths = cell_paths ~cells (Mcmf_csr.decompose_paths oracle) in
        let c_work = search_work (snapshot ws') in
        let triple (o : Mcmf_grid.outcome) = (o.flow, o.cost, o.rounds) in
        List.iter
          (fun (label, (f, c, r), paths, work) ->
            if (f, c, r) <> triple a then
              QCheck.Test.fail_reportf "%s: flow/cost/rounds (%d, %d, %d) <> fresh (%d, %d, %d)"
                label f c r a.flow a.cost a.rounds;
            if paths <> a_paths then QCheck.Test.fail_reportf "%s: paths differ" label;
            if work <> a_work then
              QCheck.Test.fail_reportf "%s: counters %a <> fresh %a" label S.pp work S.pp a_work)
          [ ("reused dirty workspace", triple b, b_paths, b_work);
            ("eager CSR", (c.Mcmf_csr.flow, c.cost, c.rounds), c_paths, c_work) ]
      in
      check ();
      let claimed =
        Point.Set.of_list (List.concat_map (fun (r : Escape.request) -> r.start_cells) reqs @ t.sclaim)
      in
      let pins = List.filter (fun p -> not (Routing_grid.blocked grid p)) pins in
      let key (e : Escape.routed) = (e.idx, e.start_cell, e.pin, Path.points e.path) in
      (* One request through [Escape.route] and the oracle, each on a
         fresh workspace capped at [budget] with an [alive] that turns
         false after [live] polls. Returns the oracle's pops. *)
      let single ?budget ?(live = max_int) (r : Escape.request) =
        let alive () = let polls = ref 0 in fun () -> incr polls; !polls <= live in
        let ws = capped_workspace budget and ws' = capped_workspace budget in
        let occupied = Escape_oracle.occupied ~grid claimed in
        let what = Printf.sprintf "request %d, budget %s, live %d" r.cluster_idx
            (match budget with Some b -> string_of_int b | None -> "none") live in
        match Escape.route ~alive:(alive ()) ~workspace:ws ~grid ~occupied ~pins [ r ] with
        | Error e -> QCheck.Test.fail_reportf "%s: route error: %s" what e
        | Ok out ->
          let oracle = Escape_oracle.route ~alive:(alive ()) ws' ~grid ~claimed ~pins [ r ] in
          if List.map key out.routed <> List.map key oracle.routed || out.failed <> oracle.failed
          then QCheck.Test.fail_reportf "%s: cells differ from the oracle" what;
          let work = search_work (snapshot ws) and work' = search_work (snapshot ws') in
          if work <> work' then
            QCheck.Test.fail_reportf "%s: counters %a, oracle %a" what S.pp work S.pp work';
          if budget_state ws (cells + 4) <> budget_state ws' (cells + 4) then
            QCheck.Test.fail_reportf "%s: budget state differs from the oracle" what;
          work'.S.pops
      in
      List.iteri
        (fun k r ->
          let pops = single r in
          ignore (single ~live:0 r : int);
          ignore (single ~live:1 r : int);
          if k = 0 then
            for budget = 0 to pops + 2 do
              ignore (single ~budget r : int)
            done)
        reqs;
      true)

let prop_roles_match_set_oracle =
  (* The role rule read off a map against [Escape_oracle]'s roles of the
     same held cells as a [Point.Set], the form the solver took them in
     before it read the owner layer. The held cells always take in some
     ring cells, the first offered pin, every pin left out of the offer
     (the layer reserves every pin cell) and the first request's start
     cells; the other requests' start cells are held at random.
     Obstacles, pins and starts may coincide. Grids run to 40x40, with
     1xk and kx1 ones, so rows start mid-byte of the bitmap and the
     packed layer and the last bitmap byte is often partial. The layer is
     also computed leased from a workspace whose byte slot 0 was filled
     with ones first, and must then equal the oracle on every packed byte
     it owns, the two-bit fields past the last cell included. *)
  let gen =
    QCheck.Gen.(
      let* shape = int_range 0 3 and* k = int_range 1 40 in
      let* a = int_range 1 40 and* b = int_range 1 40 in
      let w, h = match shape with 0 -> (1, k) | 1 -> (k, 1) | _ -> (a, b) in
      let cell =
        let* x = int_range 0 (w - 1) and* y = int_range 0 (h - 1) in
        return (Point.make x y)
      in
      let ring = Routing_grid.boundary_points (Routing_grid.create ~width:w ~height:h ()) in
      let* obstacles = list_size (int_range 0 (w * h / 4)) cell in
      let* claims = list_size (int_range 0 (w * h / 3)) cell in
      let* ring_claims = list_size (int_range 1 3) (oneofl ring) in
      let* design_pins = list_size (int_range 1 6) (oneofl ring) in
      let* offer = list_repeat (List.length design_pins) bool in
      let* reqs = list_size (int_range 1 5) (list_size (int_range 1 4) cell) in
      let* claim_starts = list_repeat (List.length reqs) bool in
      return
        ( w, h, obstacles, claims @ ring_claims, (design_pins, offer), reqs,
          true :: List.tl claim_starts ))
  in
  QCheck.Test.make ~name:"map roles = set oracle roles, filled" ~count:500 (QCheck.make gen)
    (fun (w, h, obstacles, claims, (design_pins, offer), reqs, claim_starts) ->
      let grid =
        Routing_grid.create ~width:w ~height:h
          ~obstacles:(List.map (fun (p : Point.t) -> Rect.make ~x0:p.x ~y0:p.y ~x1:p.x ~y1:p.y) obstacles)
          ()
      in
      let pick mask l = List.filteri (fun k _ -> List.nth mask k) l in
      let pins = pick offer design_pins in
      let left_out = pick (List.map not offer) design_pins in
      let requests =
        List.mapi (fun i start_cells -> { Escape.cluster_idx = i; start_cells }) reqs
      in
      let claimed =
        Point.Set.of_list
          (claims @ left_out @ List.filteri (fun k _ -> k = 0) pins
           @ List.concat (List.map2 (fun cells c -> if c then cells else []) reqs claim_starts))
      in
      let occupied = Escape_oracle.occupied ~grid claimed in
      let want = Escape_oracle.compute_roles ~grid ~claimed ~pins requests in
      let cells = Routing_grid.cells grid in
      let check label roles fields =
        for i = 0 to fields - 1 do
          if Packed_roles.get roles i <> Packed_roles.get want i then
            QCheck.Test.fail_reportf "%s: cell %d has role %d, the oracle %d" label i
              (Packed_roles.get roles i) (Packed_roles.get want i)
        done
      in
      check "allocated" (Escape.compute_roles ~grid ~occupied ~pins requests) cells;
      let ws = Pacor_route.Workspace.create () in
      let len = Packed_roles.bytes_needed cells in
      let junk = Pacor_route.Workspace.scratch_bytes ws ~slot:0 ~len in
      Bytes.fill junk 0 (Bytes.length junk) '\255';
      check "leased" (Escape.compute_roles ~workspace:ws ~grid ~occupied ~pins requests) (4 * len);
      true)

let prop_searches_share_one_workspace =
  (* The four searches that keep per-cell state on a workspace, called in
     random order on one shared workspace: A* (its marks in the node
     record's field 3), the bounded search (its visit heads in fields 0
     and 1), a seeded escape solve (its potentials in field 3, its seed
     in int slots 2 and 3) and a negotiation (claim words and history
     costs in int slots 0 and 1). Each call must return what the same
     call returns on a fresh workspace, with the same counters but
     [grid_allocs]. *)
  let module S = Pacor_route.Search_stats in
  let gen =
    QCheck.Gen.(
      pair seed_instance_gen
        (list_size (int_range 2 8) (pair (int_range 0 3) (int_range 0 1_000_000))))
  in
  let print (t, ops) =
    Format.asprintf "%s ops=[%s]" (print_seed_instance t)
      (String.concat "; " (List.map (fun (op, seed) -> Printf.sprintf "%d/%d" op seed) ops))
  in
  QCheck.Test.make ~name:"A*, bounded, escape and negotiation share one workspace" ~count:300
    (QCheck.make ~print gen) (fun (t, ops) ->
      let grid, roles = seed_instance_roles t in
      let obstacles = Routing_grid.fresh_work_map grid in
      let spec = Pacor_route.Astar.obstacle_spec obstacles in
      let pts path = Option.map Path.points path in
      let call ws (op, seed) =
        let rng = Random.State.make [| seed |] in
        let point () = Point.make (Random.State.int rng t.sw) (Random.State.int rng t.sh) in
        match op with
        | 0 ->
          let sources = [ point () ] and targets = [ point (); point () ] in
          `Astar (pts (Pacor_route.Astar.search ~workspace:ws ~grid ~spec ~sources ~targets ()))
        | 1 ->
          let source = point () and target = point () in
          let min_length = Random.State.int rng (2 * (t.sw + t.sh)) in
          `Bounded
            (pts
               (Pacor_route.Bounded_astar.search ~workspace:ws ~grid
                  ~usable:(Obstacle_map.free_i obstacles) ~source ~target ~min_length ()))
        | 2 ->
          let net = Escape.grid_network ~workspace:ws ~grid ~roles t.sreqs in
          Mcmf_grid.seed net ~h:(Escape.seed_heights ws ~grid ~roles ~pins:t.spins t.sreqs);
          let out = Mcmf_grid.solve ~workspace:ws net in
          `Escape (out.flow, out.cost, out.rounds, Mcmf_grid.paths net)
        | _ ->
          let edges =
            List.init (2 + Random.State.int rng 4) (fun i ->
              { Pacor_route.Negotiation.edge_id = i; ends = (point (), point ()) })
          in
          let mode =
            if Random.State.bool rng then Pacor_route.Negotiation.Incremental
            else Pacor_route.Negotiation.Full_reroute
          in
          let out =
            Pacor_route.Negotiation.route ~workspace:ws
              ~config:{ Pacor_route.Negotiation.default_config with mode }
              ~grid ~obstacles edges
          in
          `Negotiation
            (List.map (fun (id, p) -> (id, Path.points p)) out.paths, out.success, out.iterations)
      in
      let shared = Pacor_route.Workspace.create () in
      List.iteri
        (fun k op ->
          let before = snapshot shared in
          let got = call shared op in
          let got_work = search_work (S.diff (snapshot shared) before) in
          let fresh = Pacor_route.Workspace.create () in
          let want = call fresh op in
          let want_work = search_work (snapshot fresh) in
          if got <> want then QCheck.Test.fail_reportf "call %d (op %d): result differs" k (fst op);
          if got_work <> want_work then
            QCheck.Test.fail_reportf "call %d (op %d): counters %a, fresh %a" k (fst op) S.pp
              got_work S.pp want_work)
        ops;
      true)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_mcmf_flow_conservation; prop_solvers_agree; prop_escape_routed_equals_bound;
      prop_three_solvers_agree; prop_grid_agrees_under_threshold; prop_escape_matches_oracles;
      prop_implicit_network_matches_csr; prop_flat_seed_matches_deque_oracle;
      prop_lazy_seed_installs_on_touch; prop_roles_match_set_oracle;
      prop_searches_share_one_workspace ]

let () =
  Alcotest.run "flow"
    [ ( "mcmf",
        [ Alcotest.test_case "simple path" `Quick test_simple_path_flow;
          Alcotest.test_case "cheapest first" `Quick test_parallel_paths_pick_cheaper_first;
          Alcotest.test_case "residual rerouting" `Quick test_rerouting_via_residual;
          Alcotest.test_case "negative costs" `Quick test_negative_cost_edge;
          Alcotest.test_case "stop threshold" `Quick test_stop_threshold;
          Alcotest.test_case "disconnected" `Quick test_disconnected;
          Alcotest.test_case "decompose" `Quick test_decompose_paths;
          Alcotest.test_case "solve twice" `Quick test_solve_twice_rejected;
          Alcotest.test_case "edge validation" `Quick test_add_edge_validation ] );
      ( "maxflow",
        [ Alcotest.test_case "dinic simple" `Quick test_dinic_simple;
          Alcotest.test_case "dinic disconnected" `Quick test_dinic_disconnected;
          Alcotest.test_case "min cut" `Quick test_dinic_min_cut ] );
      ( "cross_check",
        [ Alcotest.test_case "mcmf = spfa" `Quick test_mcmf_agrees_with_spfa;
          Alcotest.test_case "mcmf flow = dinic" `Quick test_mcmf_flow_equals_dinic ] );
      ( "mcmf_grid",
        [ Alcotest.test_case "solve basics" `Quick test_grid_solve_basics;
          Alcotest.test_case "reset shares structure" `Quick test_grid_reset_shares_structure;
          Alcotest.test_case "build validation" `Quick test_grid_build_validation;
          Alcotest.test_case "budget starvation" `Quick test_grid_budget_starvation;
          Alcotest.test_case "workspace stats per round" `Quick
            test_grid_workspace_stats_rounds;
          Alcotest.test_case "dead nodes never settled" `Quick
            test_grid_dead_nodes_never_settled;
          Alcotest.test_case "budget trips in seed" `Quick test_grid_budget_trips_in_seed;
          Alcotest.test_case "warm workspace leases" `Quick test_grid_warm_workspace_leases;
          Alcotest.test_case "rip-up request, no regrowth" `Quick
            test_grid_ripup_request_no_regrowth;
          Alcotest.test_case "seeded solve after prepare, no allocation" `Quick
            test_grid_prepared_seed_no_alloc;
          Alcotest.test_case "grid = mcmf = dinic" `Quick
            test_grid_agrees_with_general_solvers;
          Alcotest.test_case "long chain decompose" `Quick test_mcmf_long_chain_decompose ] );
      ( "escape",
        [ Alcotest.test_case "single cluster" `Quick test_escape_single_cluster;
          Alcotest.test_case "two disjoint" `Quick test_escape_two_clusters_disjoint;
          Alcotest.test_case "avoids claimed" `Quick test_escape_avoids_claimed;
          Alcotest.test_case "pin shortage" `Quick test_escape_more_clusters_than_pins;
          Alcotest.test_case "max routed dominates" `Quick
            test_escape_prefers_max_routed_over_length;
          Alcotest.test_case "validation" `Quick test_escape_validation;
          Alcotest.test_case "total length" `Quick test_escape_total_length;
          Alcotest.test_case "routed count = max-flow bound" `Quick
            test_escape_matches_feasibility_bound;
          Alcotest.test_case "three-way solver agreement" `Quick
            test_escape_three_way_agreement;
          Alcotest.test_case "duplicate cluster_idx rejected" `Quick
            test_escape_duplicate_idx_rejected;
          Alcotest.test_case "workspace reuse" `Quick test_escape_workspace_reuse;
          Alcotest.test_case "serpentine long-path regression" `Quick
            test_escape_long_path_regression;
          Alcotest.test_case "bench instances = recorded outcomes" `Quick
            test_escape_bench_instances ] );
      ("properties", qcheck_cases) ]
