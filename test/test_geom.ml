open Pacor_geom

let point = Alcotest.testable Point.pp Point.equal

(* ---------- Point ---------- *)

let test_manhattan_basics () =
  Alcotest.(check int) "zero" 0 (Point.manhattan (Point.make 3 4) (Point.make 3 4));
  Alcotest.(check int) "axis" 5 (Point.manhattan (Point.make 0 0) (Point.make 5 0));
  Alcotest.(check int) "diag" 7 (Point.manhattan (Point.make 1 2) (Point.make 4 6));
  Alcotest.(check int) "negative coords" 8
    (Point.manhattan (Point.make (-2) (-2)) (Point.make 2 2))

let test_chebyshev () =
  Alcotest.(check int) "cheb" 4 (Point.chebyshev (Point.make 1 2) (Point.make 4 6));
  Alcotest.(check int) "cheb axis" 5 (Point.chebyshev (Point.make 0 0) (Point.make 5 0))

let test_midpoint () =
  Alcotest.check point "even" (Point.make 2 3) (Point.midpoint (Point.make 0 0) (Point.make 4 6));
  Alcotest.check point "odd truncates toward first" (Point.make 1 1)
    (Point.midpoint (Point.make 0 0) (Point.make 3 3));
  Alcotest.check point "reverse order" (Point.make 2 2)
    (Point.midpoint (Point.make 3 3) (Point.make 0 0))

let test_neighbours () =
  let ns = Point.neighbours4 (Point.make 5 5) in
  Alcotest.(check int) "four of them" 4 (List.length ns);
  List.iter
    (fun n -> Alcotest.(check int) "distance 1" 1 (Point.manhattan (Point.make 5 5) n))
    ns

let test_ring () =
  Alcotest.(check (list point)) "radius 0" [ Point.make 2 2 ] (Point.ring (Point.make 2 2) 0);
  let r1 = Point.ring (Point.make 0 0) 1 in
  Alcotest.(check int) "radius 1 has 8 points" 8 (List.length r1);
  let r3 = Point.ring (Point.make 0 0) 3 in
  Alcotest.(check int) "radius 3 has 24 points" 24 (List.length r3);
  List.iter
    (fun p -> Alcotest.(check int) "all at chebyshev 3" 3 (Point.chebyshev (Point.make 0 0) p))
    r3;
  let sorted = List.sort_uniq Point.compare r3 in
  Alcotest.(check int) "no duplicates" (List.length r3) (List.length sorted)

let test_ring_negative () =
  Alcotest.check_raises "negative radius" (Invalid_argument "Point.ring: negative radius")
    (fun () -> ignore (Point.ring (Point.make 0 0) (-1)))

(* ---------- Rect ---------- *)

let test_rect_normalise () =
  let r = Rect.make ~x0:5 ~y0:7 ~x1:2 ~y1:3 in
  Alcotest.(check (list int)) "corners ordered" [ 2; 3; 5; 7 ] Rect.[ r.x0; r.y0; r.x1; r.y1 ];
  Alcotest.(check int) "cells" ((4) * (5)) (Rect.cells r)

let test_rect_overlap () =
  let a = Rect.make ~x0:0 ~y0:0 ~x1:4 ~y1:4 in
  let b = Rect.make ~x0:3 ~y0:3 ~x1:6 ~y1:6 in
  Alcotest.(check int) "overlap cells" 4 (Rect.overlap_cells a b);
  let c = Rect.make ~x0:10 ~y0:10 ~x1:11 ~y1:11 in
  Alcotest.(check int) "disjoint" 0 (Rect.overlap_cells a c);
  Alcotest.(check bool) "inter none" true (Rect.inter a c = None)

let test_rect_degenerate () =
  let seg = Rect.of_points (Point.make 2 2) (Point.make 2 8) in
  Alcotest.(check int) "segment cells" 7 (Rect.cells seg);
  let pt = Rect.of_points (Point.make 1 1) (Point.make 1 1) in
  Alcotest.(check int) "point cells" 1 (Rect.cells pt)

let test_rect_of_point_list () =
  let r = Rect.of_point_list [ Point.make 1 5; Point.make 3 2; Point.make 0 4 ] in
  Alcotest.(check (list int)) "covers all" [ 0; 2; 3; 5 ] Rect.[ r.x0; r.y0; r.x1; r.y1 ];
  Alcotest.(check int) "tight cells" ((3 + 1) * (3 + 1)) (Rect.cells r);
  Alcotest.check_raises "empty" (Invalid_argument "Rect.of_point_list: empty") (fun () ->
    ignore (Rect.of_point_list []))

(* ---------- Tilted ---------- *)

let test_tilted_roundtrip () =
  List.iter
    (fun (x, y) ->
       let p = Point.make x y in
       let c = Tilted.coord_of_point p in
       Alcotest.(check bool) "on grid" true (Tilted.grid_round_error c = 0);
       Alcotest.check point "roundtrip" p (Tilted.nearest_grid_point c))
    [ (0, 0); (3, 4); (7, 1); (12, 12); (5, 0) ]

let test_tilted_distance_is_doubled_manhattan () =
  let pairs = [ ((0, 0), (3, 4)); ((1, 1), (1, 1)); ((2, 7), (9, 3)) ] in
  List.iter
    (fun ((x1, y1), (x2, y2)) ->
       let p = Point.make x1 y1 and q = Point.make x2 y2 in
       Alcotest.(check int) "doubled manhattan"
         (2 * Point.manhattan p q)
         (Tilted.coord_dist (Tilted.coord_of_point p) (Tilted.coord_of_point q)))
    pairs

let test_trr_dist_and_inflate () =
  let a = Tilted.of_point (Point.make 0 0) in
  let b = Tilted.of_point (Point.make 3 0) in
  Alcotest.(check int) "point-point" 6 (Tilted.dist a b);
  let a1 = Tilted.inflate a 2 in
  Alcotest.(check int) "inflated distance shrinks" 4 (Tilted.dist a1 b);
  let a3 = Tilted.inflate a 6 in
  Alcotest.(check int) "touching" 0 (Tilted.dist a3 b)

let test_trr_inter () =
  let a = Tilted.inflate (Tilted.of_point (Point.make 0 0)) 6 in
  let b = Tilted.inflate (Tilted.of_point (Point.make 3 0)) 2 in
  (match Tilted.inter a b with
   | None -> Alcotest.fail "expected intersection"
   | Some r ->
     (* Every sample of the intersection is within both radii. *)
     List.iter
       (fun c ->
          Alcotest.(check bool) "within a" true
            (Tilted.dist_coord c (Tilted.of_point (Point.make 0 0)) <= 6);
          Alcotest.(check bool) "within b" true
            (Tilted.dist_coord c (Tilted.of_point (Point.make 3 0)) <= 2))
       (Tilted.sample r 9));
  let far = Tilted.of_point (Point.make 50 50) in
  Alcotest.(check bool) "disjoint" true (Tilted.inter a far = None)

let test_nearest_in () =
  let r = Tilted.inflate (Tilted.of_point (Point.make 5 5)) 4 in
  let inside = Tilted.coord_of_point (Point.make 5 5) in
  let n = Tilted.nearest_in r inside in
  Alcotest.(check int) "inside unchanged" 0 (Tilted.coord_dist inside n);
  let outside = Tilted.coord_of_point (Point.make 50 50) in
  let n2 = Tilted.nearest_in r outside in
  Alcotest.(check int) "clamped onto region" 0 (Tilted.dist_coord n2 r)

let test_odd_distance_offgrid_lemma1 () =
  (* Lemma 1: nodes at odd Manhattan distance have an off-grid merging
     segment. The midpoint locus between (0,0) and (1,0) sits at doubled
     distance 1 from each, which no grid point achieves. *)
  let a = Tilted.coord_of_point (Point.make 0 0) in
  let mid = { a with Tilted.u = a.Tilted.u + 1 } in
  Alcotest.(check bool) "off grid" false (Tilted.grid_round_error mid = 0);
  Alcotest.(check int) "rounding error is 1" 1 (Tilted.grid_round_error mid)

let test_sample_bounds () =
  let r = Tilted.make ~ulo:0 ~uhi:10 ~vlo:(-4) ~vhi:4 in
  let s = Tilted.sample r 64 in
  Alcotest.(check bool) "non-empty" true (s <> []);
  List.iter
    (fun c -> Alcotest.(check int) "sample in region" 0 (Tilted.dist_coord c r))
    s;
  Alcotest.(check int) "cap respected" 3 (List.length (Tilted.sample r 3))

let test_make_empty_region () =
  Alcotest.check_raises "empty region" (Invalid_argument "Tilted.make: empty region")
    (fun () -> ignore (Tilted.make ~ulo:1 ~uhi:0 ~vlo:0 ~vhi:0))

(* ---------- QCheck properties ---------- *)

let arb_point =
  QCheck.map
    (fun (x, y) -> Point.make x y)
    (QCheck.pair (QCheck.int_range (-50) 50) (QCheck.int_range (-50) 50))

let prop_manhattan_symmetric =
  QCheck.Test.make ~name:"manhattan symmetric" ~count:200 (QCheck.pair arb_point arb_point)
    (fun (p, q) -> Point.manhattan p q = Point.manhattan q p)

let prop_manhattan_triangle =
  QCheck.Test.make ~name:"manhattan triangle inequality" ~count:200
    (QCheck.triple arb_point arb_point arb_point)
    (fun (p, q, r) -> Point.manhattan p r <= Point.manhattan p q + Point.manhattan q r)

let prop_chebyshev_le_manhattan =
  QCheck.Test.make ~name:"chebyshev <= manhattan" ~count:200 (QCheck.pair arb_point arb_point)
    (fun (p, q) -> Point.chebyshev p q <= Point.manhattan p q)

let prop_tilted_dist_exact =
  QCheck.Test.make ~name:"tilted coord_dist = 2 * manhattan" ~count:500
    (QCheck.pair arb_point arb_point)
    (fun (p, q) ->
       Tilted.coord_dist (Tilted.coord_of_point p) (Tilted.coord_of_point q)
       = 2 * Point.manhattan p q)

let prop_tilted_roundtrip =
  QCheck.Test.make ~name:"tilted roundtrip on grid" ~count:500 arb_point (fun p ->
    Point.equal p (Tilted.nearest_grid_point (Tilted.coord_of_point p)))

let prop_ring_size =
  QCheck.Test.make ~name:"ring r has 8r points" ~count:100
    (QCheck.pair arb_point (QCheck.int_range 1 10))
    (fun (p, r) -> List.length (Point.ring p r) = 8 * r)

let prop_rect_overlap_symmetric =
  QCheck.Test.make ~name:"rect overlap symmetric" ~count:200
    (QCheck.pair (QCheck.pair arb_point arb_point) (QCheck.pair arb_point arb_point))
    (fun ((a1, a2), (b1, b2)) ->
       let ra = Rect.of_points a1 a2 and rb = Rect.of_points b1 b2 in
       Rect.overlap_cells ra rb = Rect.overlap_cells rb ra)

let prop_rect_overlap_bounded =
  QCheck.Test.make ~name:"overlap <= min cells" ~count:200
    (QCheck.pair (QCheck.pair arb_point arb_point) (QCheck.pair arb_point arb_point))
    (fun ((a1, a2), (b1, b2)) ->
       let ra = Rect.of_points a1 a2 and rb = Rect.of_points b1 b2 in
       Rect.overlap_cells ra rb <= min (Rect.cells ra) (Rect.cells rb))

let prop_nearest_grid_point_minimal =
  QCheck.Test.make ~name:"nearest grid point within 2 doubled units" ~count:300
    (QCheck.pair (QCheck.int_range (-100) 100) (QCheck.int_range (-100) 100))
    (fun (u, v) ->
       (* Any tilted point with u+v even corresponds to a half-grid point
          at doubled distance <= 2 from some grid point. *)
       let c = { Tilted.u; v } in
       Tilted.grid_round_error c <= 2)


let arb_trr =
  QCheck.make
    QCheck.Gen.(
      let* x = int_range 0 10 and* y = int_range 0 10 in
      let* r = int_range 0 8 in
      return (Tilted.inflate (Tilted.of_point (Point.make x y)) r))

let prop_trr_inflate_is_distance_ball =
  (* Membership in an inflated TRR is exactly the doubled-distance test,
     checked pointwise against brute force over a small window. *)
  QCheck.Test.make ~name:"inflate = distance ball (brute force)" ~count:60
    (QCheck.pair arb_point (QCheck.int_range 0 6))
    (fun (p, r) ->
       let trr = Tilted.inflate (Tilted.of_point p) (2 * r) in
       let ok = ref true in
       for x = p.Point.x - 8 to p.Point.x + 8 do
         for y = p.Point.y - 8 to p.Point.y + 8 do
           let q = Point.make x y in
           let inside = Tilted.dist_coord (Tilted.coord_of_point q) trr = 0 in
           let near = Point.manhattan p q <= r in
           if inside <> near then ok := false
         done
       done;
       !ok)

let prop_trr_inter_is_pointwise =
  (* A grid point lies in the intersection iff it lies in both regions. *)
  QCheck.Test.make ~name:"TRR intersection = pointwise and" ~count:60
    (QCheck.pair arb_trr arb_trr)
    (fun (a, b) ->
       let member t q = Tilted.dist_coord (Tilted.coord_of_point q) t = 0 in
       let ok = ref true in
       for x = -10 to 20 do
         for y = -10 to 20 do
           let q = Point.make x y in
           let lhs =
             match Tilted.inter a b with Some i -> member i q | None -> false
           in
           if lhs <> (member a q && member b q) then ok := false
         done
       done;
       !ok)

let prop_nearest_in_is_closest =
  QCheck.Test.make ~name:"nearest_in minimises distance" ~count:100
    (QCheck.pair arb_trr arb_point)
    (fun (t, p) ->
       let c = Tilted.coord_of_point p in
       let n = Tilted.nearest_in t c in
       Tilted.coord_dist c n = Tilted.dist_coord c t)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_manhattan_symmetric; prop_manhattan_triangle; prop_chebyshev_le_manhattan;
      prop_tilted_dist_exact; prop_tilted_roundtrip; prop_ring_size;
      prop_rect_overlap_symmetric; prop_rect_overlap_bounded;
      prop_nearest_grid_point_minimal; prop_trr_inflate_is_distance_ball;
      prop_trr_inter_is_pointwise; prop_nearest_in_is_closest ]

let () =
  Alcotest.run "geom"
    [ ( "point",
        [ Alcotest.test_case "manhattan basics" `Quick test_manhattan_basics;
          Alcotest.test_case "chebyshev" `Quick test_chebyshev;
          Alcotest.test_case "midpoint" `Quick test_midpoint;
          Alcotest.test_case "neighbours4" `Quick test_neighbours;
          Alcotest.test_case "ring" `Quick test_ring;
          Alcotest.test_case "ring negative" `Quick test_ring_negative ] );
      ( "rect",
        [ Alcotest.test_case "normalise" `Quick test_rect_normalise;
          Alcotest.test_case "overlap" `Quick test_rect_overlap;
          Alcotest.test_case "degenerate" `Quick test_rect_degenerate;
          Alcotest.test_case "of_point_list" `Quick test_rect_of_point_list ] );
      ( "tilted",
        [ Alcotest.test_case "roundtrip" `Quick test_tilted_roundtrip;
          Alcotest.test_case "doubled manhattan" `Quick test_tilted_distance_is_doubled_manhattan;
          Alcotest.test_case "dist/inflate" `Quick test_trr_dist_and_inflate;
          Alcotest.test_case "intersection" `Quick test_trr_inter;
          Alcotest.test_case "nearest_in" `Quick test_nearest_in;
          Alcotest.test_case "lemma 1 (odd distance off-grid)" `Quick
            test_odd_distance_offgrid_lemma1;
          Alcotest.test_case "sample" `Quick test_sample_bounds;
          Alcotest.test_case "empty region" `Quick test_make_empty_region ] );
      ("properties", qcheck_cases) ]
