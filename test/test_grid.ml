open Pacor_geom
open Pacor_grid

let point = Alcotest.testable Point.pp Point.equal

(* ---------- Design rules ---------- *)

let test_rules () =
  let r = Design_rules.default in
  Alcotest.(check int) "pitch" 20 (Design_rules.grid_pitch_um r);
  Alcotest.(check int) "length conversion" 100 (Design_rules.um_of_grid_length r 5)

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
  let rejected what msg pts =
    Alcotest.check_raises what (Invalid_argument ("Path.of_points: " ^ msg)) (fun () ->
      ignore (Path.of_points pts))
  in
  rejected "empty rejected" "empty path" [];
  rejected "jump rejected" "non-adjacent consecutive points" [ Point.make 0 0; Point.make 2 0 ];
  rejected "repeat rejected" "repeated vertex" [ Point.make 0 0; Point.make 1 0; Point.make 0 0 ];
  rejected "diagonal rejected" "non-adjacent consecutive points" [ Point.make 0 0; Point.make 1 1 ]

let test_path_trivial () =
  let p = mk_path [ (3, 3) ] in
  Alcotest.(check int) "trivial length" 0 (Path.length p);
  Alcotest.(check bool) "is trivial" true (Path.is_trivial p)

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

let prop_fill_masks_match_free =
  (* The eight-cells-per-step free mask and the escape network's role
     fill against the per-cell predicates, on grids whose cell count is
     rarely a multiple of eight, into buffers that start dirty (the mask's
     runs past the grid). The role fill reads a map that blocks more
     than the grid: a cell is ordinary iff it is interior and free in it. *)
  QCheck.Test.make ~name:"fill_free / compute_roles = per-cell free" ~count:200
    QCheck.(
      quad (int_range 1 23) (int_range 1 23) (small_list (pair small_nat small_nat))
        (small_list (pair small_nat small_nat)))
    (fun (w, h, obs, held) ->
      let grid =
        Routing_grid.create ~width:w ~height:h
          ~obstacles:(List.map (fun (x, y) -> Rect.make ~x0:(x mod w) ~y0:(y mod h) ~x1:(x mod w) ~y1:(y mod h)) obs)
          ()
      in
      let occupied = Routing_grid.fresh_work_map grid in
      List.iter (fun (x, y) -> Obstacle_map.block occupied (Point.make (x mod w) (y mod h))) held;
      let n = w * h in
      let b = Bytes.make (n + 9) '\007' in
      Obstacle_map.fill_free (Routing_grid.obstacles grid) b;
      let ws = Pacor_route.Workspace.create () in
      Bytes.fill
        (Pacor_route.Workspace.scratch_bytes ws ~slot:0 ~len:(Packed_roles.bytes_needed n))
        0 (Packed_roles.bytes_needed n) '\255';
      let roles = Pacor_flow.Escape.compute_roles ~workspace:ws ~grid ~occupied ~pins:[] [] in
      let ok = ref (Bytes.get b n = '\007') in
      for i = 0 to n - 1 do
        let free = Routing_grid.free_i grid i in
        if Bytes.get b i <> (if free then '\001' else '\000') then ok := false;
        let ordinary = Obstacle_map.free_i occupied i && not (Routing_grid.on_boundary_i grid i) in
        let want = Pacor_flow.Escape.(if ordinary then role_ordinary else role_excluded) in
        if Packed_roles.get roles i <> want then ok := false
      done;
      !ok)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_path_roundtrip; prop_path_length;
      prop_obstacle_count_tracks_operations; prop_fill_masks_match_free ]

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
          Alcotest.test_case "index roundtrip" `Quick test_grid_index_roundtrip;
          Alcotest.test_case "work map isolated" `Quick test_grid_work_map_isolated ] );
      ( "path",
        [ Alcotest.test_case "basics" `Quick test_path_basics;
          Alcotest.test_case "invalid" `Quick test_path_invalid;
          Alcotest.test_case "trivial" `Quick test_path_trivial;
          Alcotest.test_case "replace segment" `Quick test_path_replace_segment;
          Alcotest.test_case "shares vertex" `Quick test_path_shares_vertex ] );
      ( "packed_roles",
        [ Alcotest.test_case "round-trip" `Quick test_packed_roles_roundtrip ] );
      ("properties", qcheck_cases) ]
