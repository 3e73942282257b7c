open Pacor_geom
open Pacor_grid

let point = Alcotest.testable Point.pp Point.equal

(* ---------- Design rules ---------- *)

let test_rules () =
  let r = Design_rules.default in
  Alcotest.(check int) "pitch" 20 (Design_rules.grid_pitch_um r);
  Alcotest.(check int) "length conversion" 100 (Design_rules.um_of_grid_length r 5);
  Alcotest.(check bool) "default valid" true (Design_rules.validate r = Ok r);
  let bad = { r with Design_rules.channel_width_um = 0 } in
  Alcotest.(check bool) "zero width invalid" true (Result.is_error (Design_rules.validate bad))

(* ---------- Obstacle map ---------- *)

let test_obstacle_basic () =
  let m = Obstacle_map.create ~width:10 ~height:8 in
  Alcotest.(check int) "dims" 10 (Obstacle_map.width m);
  Alcotest.(check bool) "initially free" true (Obstacle_map.free m (Point.make 3 3));
  Obstacle_map.block m (Point.make 3 3);
  Alcotest.(check bool) "blocked" true (Obstacle_map.blocked m (Point.make 3 3));
  Alcotest.(check int) "count" 1 (Obstacle_map.blocked_count m);
  Obstacle_map.block m (Point.make 3 3);
  Alcotest.(check int) "idempotent count" 1 (Obstacle_map.blocked_count m);
  Obstacle_map.unblock m (Point.make 3 3);
  Alcotest.(check bool) "unblocked" true (Obstacle_map.free m (Point.make 3 3));
  Alcotest.(check int) "count back" 0 (Obstacle_map.blocked_count m)

let test_obstacle_bounds () =
  let m = Obstacle_map.create ~width:4 ~height:4 in
  Alcotest.(check bool) "out of bounds blocked" true (Obstacle_map.blocked m (Point.make (-1) 0));
  Alcotest.(check bool) "out of bounds blocked 2" true (Obstacle_map.blocked m (Point.make 4 0));
  Obstacle_map.block m (Point.make 99 99);
  Alcotest.(check int) "oob block is noop" 0 (Obstacle_map.blocked_count m)

let test_obstacle_rect_and_copy () =
  let m = Obstacle_map.create ~width:10 ~height:10 in
  Obstacle_map.block_rect m (Rect.make ~x0:2 ~y0:2 ~x1:4 ~y1:3);
  Alcotest.(check int) "rect cells" 6 (Obstacle_map.blocked_count m);
  let c = Obstacle_map.copy m in
  Obstacle_map.block c (Point.make 0 0);
  Alcotest.(check int) "copy independent" 6 (Obstacle_map.blocked_count m);
  Alcotest.(check int) "copy updated" 7 (Obstacle_map.blocked_count c);
  (* Rect partially out of bounds clips. *)
  Obstacle_map.block_rect m (Rect.make ~x0:8 ~y0:8 ~x1:20 ~y1:20);
  Alcotest.(check int) "clipped rect" (6 + 4) (Obstacle_map.blocked_count m)

let test_obstacle_iter () =
  let m = Obstacle_map.create ~width:5 ~height:5 in
  Obstacle_map.block_points m [ Point.make 1 1; Point.make 3 2 ];
  let seen = ref [] in
  Obstacle_map.iter_blocked m (fun p -> seen := p :: !seen);
  Alcotest.(check int) "iterated both" 2 (List.length !seen)

(* ---------- Routing grid ---------- *)

let test_grid_boundary () =
  let g = Routing_grid.create ~width:5 ~height:4 () in
  let b = Routing_grid.boundary_points g in
  Alcotest.(check int) "perimeter count" (2 * (5 + 4) - 4) (List.length b);
  List.iter (fun p -> Alcotest.(check bool) "on boundary" true (Routing_grid.on_boundary g p)) b;
  Alcotest.(check bool) "interior not boundary" false
    (Routing_grid.on_boundary g (Point.make 2 2));
  let sorted = List.sort_uniq Point.compare b in
  Alcotest.(check int) "no duplicates" (List.length b) (List.length sorted)

let test_grid_1xn_boundary () =
  let g = Routing_grid.create ~width:1 ~height:5 () in
  Alcotest.(check int) "thin grid boundary" 5
    (List.length (Routing_grid.boundary_points g))

let test_grid_nearest_free () =
  let g =
    Routing_grid.create ~width:7 ~height:7
      ~obstacles:[ Rect.make ~x0:2 ~y0:2 ~x1:4 ~y1:4 ] ()
  in
  (match Routing_grid.nearest_free g (Point.make 3 3) with
   | None -> Alcotest.fail "expected a free cell"
   | Some p ->
     Alcotest.(check bool) "free" true (Routing_grid.free g p);
     Alcotest.(check int) "at distance 2" 2 (Point.manhattan (Point.make 3 3) p));
  (match Routing_grid.nearest_free g (Point.make 0 0) with
   | Some p -> Alcotest.check point "already free" (Point.make 0 0) p
   | None -> Alcotest.fail "expected the same cell")

let test_grid_index_roundtrip () =
  let g = Routing_grid.create ~width:9 ~height:5 () in
  for y = 0 to 4 do
    for x = 0 to 8 do
      let p = Point.make x y in
      Alcotest.check point "roundtrip" p
        (Routing_grid.point_of_index g (Routing_grid.index g p))
    done
  done

let test_grid_work_map_isolated () =
  let g = Routing_grid.create ~width:5 ~height:5 () in
  let w = Routing_grid.fresh_work_map g in
  Obstacle_map.block w (Point.make 2 2);
  Alcotest.(check bool) "static unaffected" true (Routing_grid.free g (Point.make 2 2))

(* ---------- Path ---------- *)

let mk_path pts = Path.of_points (List.map (fun (x, y) -> Point.make x y) pts)

let test_path_basics () =
  let p = mk_path [ (0, 0); (1, 0); (1, 1); (2, 1) ] in
  Alcotest.(check int) "length" 3 (Path.length p);
  Alcotest.check point "source" (Point.make 0 0) (Path.source p);
  Alcotest.check point "target" (Point.make 2 1) (Path.target p);
  Alcotest.(check bool) "mem" true (Path.mem p (Point.make 1 1));
  Alcotest.(check bool) "not mem" false (Path.mem p (Point.make 2 0))

let test_path_invalid () =
  Alcotest.(check bool) "empty rejected" true (Path.of_points_opt [] = None);
  Alcotest.(check bool) "jump rejected" true
    (Path.of_points_opt [ Point.make 0 0; Point.make 2 0 ] = None);
  Alcotest.(check bool) "repeat rejected" true
    (Path.of_points_opt
       [ Point.make 0 0; Point.make 1 0; Point.make 0 0 ]
     = None);
  Alcotest.(check bool) "diagonal rejected" true
    (Path.of_points_opt [ Point.make 0 0; Point.make 1 1 ] = None)

let test_path_trivial () =
  let p = mk_path [ (3, 3) ] in
  Alcotest.(check int) "trivial length" 0 (Path.length p);
  Alcotest.(check bool) "is trivial" true (Path.is_trivial p)

let test_path_reverse_append () =
  let p = mk_path [ (0, 0); (1, 0); (2, 0) ] in
  let r = Path.reverse p in
  Alcotest.check point "reversed source" (Point.make 2 0) (Path.source r);
  let q = mk_path [ (2, 0); (2, 1) ] in
  let joined = Path.append p q in
  Alcotest.(check int) "joined length" 3 (Path.length joined);
  Alcotest.check_raises "bad append"
    (Invalid_argument "Path.append: endpoints do not meet") (fun () ->
      ignore (Path.append p (mk_path [ (5, 5); (5, 6) ])))

let test_path_replace_segment () =
  let p = mk_path [ (0, 0); (1, 0); (2, 0); (3, 0) ] in
  (* Replace edge (1,0)-(2,0) with a U detour. *)
  let seg = mk_path [ (1, 0); (1, 1); (2, 1); (2, 0) ] in
  let p' = Path.replace_segment p ~from_idx:1 ~to_idx:2 seg in
  Alcotest.(check int) "lengthened by 2" (Path.length p + 2) (Path.length p');
  Alcotest.check point "same target" (Path.target p) (Path.target p');
  Alcotest.check point "same source" (Path.source p) (Path.source p')

let test_path_shares_vertex () =
  let a = mk_path [ (0, 0); (1, 0); (2, 0) ] in
  let b = mk_path [ (2, 0); (2, 1) ] in
  let c = mk_path [ (5, 5); (5, 6) ] in
  Alcotest.(check bool) "share" true (Path.shares_vertex a b);
  Alcotest.(check bool) "disjoint" false (Path.shares_vertex a c)

let test_path_bounding_box () =
  let p = mk_path [ (1, 1); (1, 2); (2, 2) ] in
  let bb = Path.bounding_box p in
  Alcotest.(check int) "bb cells" 4 (Rect.cells bb)

(* ---------- QCheck ---------- *)

(* Random staircase path generator: always valid. *)
let arb_path =
  let gen =
    QCheck.Gen.(
      let* sx = int_range 0 10 and* sy = int_range 0 10 in
      let* n = int_range 0 15 in
      let rec build p acc steps =
        if steps = 0 then return (List.rev acc)
        else
          let next = Point.make (p.Point.x + 1) p.Point.y in
          let next2 = Point.make p.Point.x (p.Point.y + 1) in
          let* right = bool in
          let q = if right then next else next2 in
          build q (q :: acc) (steps - 1)
      in
      let start = Point.make sx sy in
      build start [ start ] n)
  in
  QCheck.make gen

let prop_path_roundtrip =
  QCheck.Test.make ~name:"of_points . points = id" ~count:200 arb_path (fun pts ->
    let p = Pacor_grid.Path.of_points pts in
    List.for_all2 Point.equal pts (Pacor_grid.Path.points p))

let prop_path_length =
  QCheck.Test.make ~name:"length = points - 1" ~count:200 arb_path (fun pts ->
    Pacor_grid.Path.length (Pacor_grid.Path.of_points pts) = List.length pts - 1)

let prop_reverse_involution =
  QCheck.Test.make ~name:"reverse involutive" ~count:200 arb_path (fun pts ->
    let p = Pacor_grid.Path.of_points pts in
    Pacor_grid.Path.equal p (Pacor_grid.Path.reverse (Pacor_grid.Path.reverse p)))


let prop_obstacle_count_tracks_operations =
  (* The blocked counter equals a brute-force recount after any random
     block/unblock sequence. *)
  QCheck.Test.make ~name:"obstacle count matches recount" ~count:100
    (QCheck.list
       (QCheck.triple QCheck.bool (QCheck.int_range 0 7) (QCheck.int_range 0 7)))
    (fun ops ->
       let m = Obstacle_map.create ~width:8 ~height:8 in
       List.iter
         (fun (block, x, y) ->
            let p = Point.make x y in
            if block then Obstacle_map.block m p else Obstacle_map.unblock m p)
         ops;
       let recount = ref 0 in
       Obstacle_map.iter_blocked m (fun _ -> incr recount);
       !recount = Obstacle_map.blocked_count m)

(* ---------- Packed roles ---------- *)

let test_packed_roles_roundtrip () =
  let len = 37 in
  (* odd length: exercises the partial last byte *)
  let roles = Packed_roles.create len in
  Alcotest.(check int) "length" len (Packed_roles.length roles);
  for i = 0 to len - 1 do
    Packed_roles.set roles i (i mod 4)
  done;
  for i = 0 to len - 1 do
    Alcotest.(check int) (Printf.sprintf "cell %d" i) (i mod 4) (Packed_roles.get roles i)
  done;
  Packed_roles.clear roles;
  for i = 0 to len - 1 do
    Alcotest.(check int) "cleared" 0 (Packed_roles.get roles i)
  done;
  (* wrap keeps buffer contents; higher role bits are masked off. *)
  let buf = Bytes.make (Packed_roles.bytes_needed len) '\255' in
  let wrapped = Packed_roles.wrap ~len buf in
  Alcotest.(check int) "wrap keeps contents" 3 (Packed_roles.get wrapped 13);
  (* The hot-path set masks roles to two bits; the checked variant raises. *)
  Packed_roles.set wrapped 13 (4 + 2);
  Alcotest.(check int) "role masked to two bits" 2 (Packed_roles.checked_get wrapped 13);
  (match Packed_roles.checked_set wrapped 13 6 with
   | () -> Alcotest.fail "checked_set must refuse roles above 3"
   | exception Invalid_argument _ -> ())

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_path_roundtrip; prop_path_length; prop_reverse_involution;
      prop_obstacle_count_tracks_operations ]

let () =
  Alcotest.run "grid"
    [ ("design_rules", [ Alcotest.test_case "basics" `Quick test_rules ]);
      ( "obstacle_map",
        [ Alcotest.test_case "basic" `Quick test_obstacle_basic;
          Alcotest.test_case "bounds" `Quick test_obstacle_bounds;
          Alcotest.test_case "rect and copy" `Quick test_obstacle_rect_and_copy;
          Alcotest.test_case "iter" `Quick test_obstacle_iter ] );
      ( "routing_grid",
        [ Alcotest.test_case "boundary" `Quick test_grid_boundary;
          Alcotest.test_case "thin boundary" `Quick test_grid_1xn_boundary;
          Alcotest.test_case "nearest free" `Quick test_grid_nearest_free;
          Alcotest.test_case "index roundtrip" `Quick test_grid_index_roundtrip;
          Alcotest.test_case "work map isolated" `Quick test_grid_work_map_isolated ] );
      ( "path",
        [ Alcotest.test_case "basics" `Quick test_path_basics;
          Alcotest.test_case "invalid" `Quick test_path_invalid;
          Alcotest.test_case "trivial" `Quick test_path_trivial;
          Alcotest.test_case "reverse/append" `Quick test_path_reverse_append;
          Alcotest.test_case "replace segment" `Quick test_path_replace_segment;
          Alcotest.test_case "shares vertex" `Quick test_path_shares_vertex;
          Alcotest.test_case "bounding box" `Quick test_path_bounding_box ] );
      ( "packed_roles",
        [ Alcotest.test_case "round-trip" `Quick test_packed_roles_roundtrip ] );
      ("properties", qcheck_cases) ]
