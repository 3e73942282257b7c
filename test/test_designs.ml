open Pacor_valve
open Pacor_designs

(* ---------- RNG ---------- *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:42L and b = Rng.create ~seed:42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next a) (Rng.next b)
  done

let test_rng_different_seeds () =
  let a = Rng.create ~seed:1L and b = Rng.create ~seed:2L in
  Alcotest.(check bool) "different streams" false (Rng.next a = Rng.next b)

let test_rng_int_bounds () =
  let r = Rng.create ~seed:7L in
  for _ = 1 to 1000 do
    let v = Rng.int r ~bound:10 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 10)
  done;
  Alcotest.check_raises "bad bound" (Invalid_argument "Rng.int: non-positive bound")
    (fun () -> ignore (Rng.int r ~bound:0))

let test_rng_pick_shuffle () =
  let r = Rng.create ~seed:3L in
  let xs = [ 1; 2; 3; 4; 5 ] in
  Alcotest.(check bool) "pick member" true (List.mem (Rng.pick r xs) xs);
  let sh = Rng.shuffle r xs in
  Alcotest.(check (list int)) "shuffle is a permutation" xs (List.sort Int.compare sh)

let test_rng_pick_edge_cases () =
  let r = Rng.create ~seed:5L in
  (* An empty population is a caller bug and must be named, not surfaced
     as the old [Failure "nth"]. *)
  Alcotest.check_raises "empty list" (Invalid_argument "Rng.pick: empty list")
    (fun () -> ignore (Rng.pick r []));
  Alcotest.check_raises "empty array"
    (Invalid_argument "Rng.pick_array: empty array")
    (fun () -> ignore (Rng.pick_array r [||]));
  Alcotest.(check int) "singleton pick" 9 (Rng.pick r [ 9 ]);
  let arr = [| 10; 20; 30 |] in
  for _ = 1 to 100 do
    Alcotest.(check bool) "array member" true
      (Array.exists (Int.equal (Rng.pick_array r arr)) arr)
  done;
  (* pick over a list and pick_array over the same population consume the
     stream identically for multi-element populations. *)
  let a = Rng.create ~seed:21L and b = Rng.create ~seed:21L in
  for _ = 1 to 50 do
    Alcotest.(check int) "list/array draw agreement"
      (Rng.pick a [ 1; 2; 3; 4 ])
      (Rng.pick_array b [| 1; 2; 3; 4 |])
  done

(* ---------- Synthetic ---------- *)

let small_spec =
  {
    Synthetic.name = "t1";
    width = 24;
    height = 24;
    obstacle_cells = 12;
    lm_cluster_sizes = [ 2; 3 ];
    singleton_valves = 2;
    pin_count = 20;
    seed = 99L;
    delta = 1;
  }

let test_synthetic_matches_spec () =
  match Synthetic.generate small_spec with
  | Error e -> Alcotest.failf "generate failed: %s" e
  | Ok p ->
    Alcotest.(check int) "valves" 7 (Pacor.Problem.valve_count p);
    Alcotest.(check int) "pins" 20 (Pacor.Problem.pin_count p);
    Alcotest.(check int) "clusters" 2 (List.length p.Pacor.Problem.lm_clusters);
    Alcotest.(check bool) "obstacles near target" true
      (abs (Pacor.Problem.obstacle_count p - 12) <= 4);
    Alcotest.(check int) "delta" 1 p.Pacor.Problem.delta

let test_synthetic_deterministic () =
  let gen () =
    match Synthetic.generate small_spec with
    | Ok p -> Pacor.Problem_io.to_string p
    | Error e -> Alcotest.failf "generate failed: %s" e
  in
  Alcotest.(check string) "bit-identical regeneration" (gen ()) (gen ())

let test_synthetic_cluster_structure () =
  match Synthetic.generate small_spec with
  | Error e -> Alcotest.failf "generate failed: %s" e
  | Ok p ->
    (* Clustering with these sequences must reproduce exactly the LM
       clusters plus singletons. *)
    (match
       Pacor_valve.Clustering.cluster ~seeds:p.Pacor.Problem.lm_clusters
         p.Pacor.Problem.valves
     with
     | Error e -> Alcotest.failf "clustering failed: %s" e
     | Ok part ->
       let multi =
         List.filter (fun c -> Cluster.size c >= 2) part.Clustering.clusters
       in
       Alcotest.(check int) "exactly the seeded multi clusters" 2 (List.length multi);
       Alcotest.(check int) "total clusters" 4 (List.length part.Clustering.clusters))

let test_synthetic_rejects_bad_specs () =
  Alcotest.(check bool) "size-1 LM cluster" true
    (Result.is_error (Synthetic.generate { small_spec with lm_cluster_sizes = [ 1 ] }));
  Alcotest.(check bool) "tiny grid" true
    (Result.is_error (Synthetic.generate { small_spec with width = 4 }));
  Alcotest.(check bool) "too many pins" true
    (Result.is_error (Synthetic.generate { small_spec with pin_count = 1000 }))

(* ---------- Table 1 ---------- *)

let test_table1_rows () =
  Alcotest.(check int) "seven designs" 7 (List.length Table1.rows);
  let r = List.find (fun r -> r.Table1.design = "S3" ) Table1.rows in
  Alcotest.(check int) "S3 valves" 15 r.Table1.valves;
  Alcotest.(check int) "S3 pins" 93 r.Table1.control_pins;
  Alcotest.(check int) "S3 obstacles" 0 r.Table1.obstacles

let test_table1_specs_consistent () =
  List.iter
    (fun (r : Table1.row) ->
       match Table1.spec_of r.design with
       | None -> Alcotest.failf "missing spec for %s" r.design
       | Some spec ->
         Alcotest.(check int) (r.design ^ " width") r.width spec.Synthetic.width;
         Alcotest.(check int) (r.design ^ " pins") r.control_pins spec.Synthetic.pin_count;
         let total_valves =
           List.fold_left ( + ) 0 spec.Synthetic.lm_cluster_sizes
           + spec.Synthetic.singleton_valves
         in
         Alcotest.(check int) (r.design ^ " valve total") r.valves total_valves;
         Alcotest.(check int)
           (r.design ^ " multi clusters")
           r.multi_clusters
           (List.length spec.Synthetic.lm_cluster_sizes))
    Table1.rows

let test_table1_small_designs_generate () =
  List.iter
    (fun name ->
       match Table1.load name with
       | Error e -> Alcotest.failf "%s failed: %s" name e
       | Ok p ->
         let row = List.find (fun r -> r.Table1.design = name) Table1.rows in
         Alcotest.(check int) (name ^ " valves") row.Table1.valves
           (Pacor.Problem.valve_count p);
         Alcotest.(check int) (name ^ " pins") row.Table1.control_pins
           (Pacor.Problem.pin_count p))
    Table1.small_names

let test_table1_unknown () =
  Alcotest.(check bool) "unknown design" true (Result.is_error (Table1.load "S99"))

(* ---------- End-to-end on the small designs ---------- *)

let test_s1_s2_route_fully () =
  List.iter
    (fun name ->
       let p =
         match Table1.load name with
         | Ok p -> p
         | Error e -> Alcotest.failf "%s: %s" name e
       in
       match Pacor.Engine.run p with
       | Error e -> Alcotest.failf "%s engine: %s" name e.Pacor.Engine.message
       | Ok sol ->
         let stats = Pacor.Solution.stats sol in
         Alcotest.(check (float 1e-9)) (name ^ " completion") 1.0 stats.completion;
         (match Pacor.Solution.validate sol with
          | Ok () -> ()
          | Error es -> Alcotest.failf "%s invalid: %s" name (String.concat "; " es)))
    [ "S1"; "S2" ]


(* ---------- Scaling / sweep extension studies ---------- *)

let test_scaling_family_well_formed () =
  let specs = Scaling.family ~steps:4 () in
  Alcotest.(check int) "four steps" 4 (List.length specs);
  let rec increasing = function
    | (a : Synthetic.spec) :: (b : Synthetic.spec) :: rest ->
      a.width * a.height < b.width * b.height && increasing (b :: rest)
    | _ -> true
  in
  Alcotest.(check bool) "areas grow" true (increasing specs)

let test_scaling_measures () =
  match Scaling.measure (Scaling.family ~steps:2 ()) with
  | Error e -> Alcotest.failf "scaling failed: %s" e
  | Ok samples ->
    Alcotest.(check int) "two samples" 2 (List.length samples);
    List.iter
      (fun (s : Scaling.sample) ->
         Alcotest.(check (float 1e-9)) (s.label ^ " completes") 1.0 s.completion;
         Alcotest.(check bool) "has stage timings" true (s.stage_seconds <> []))
      samples

let test_harness_measures_s1 () =
  match Harness.measure_design "S1" with
  | Error e -> Alcotest.failf "harness failed: %s" e
  | Ok row ->
    Alcotest.(check string) "design name" "S1" row.Pacor.Report.design;
    Alcotest.(check int) "clusters" 2 row.Pacor.Report.clusters

(* [Problem.create] refuses names the instance text cannot carry; every
   generator's names must pass it. *)
let test_generator_names_text_safe () =
  let generated what = function
    | Ok (p : Pacor.Problem.t) ->
      (match Pacor.Problem_io.of_string (Pacor.Problem_io.to_string p) with
       | Ok p' -> Alcotest.(check string) (what ^ " name round trip") p.name p'.Pacor.Problem.name
       | Error e -> Alcotest.failf "%s: reparse failed: %s" what e)
    | Error e -> Alcotest.failf "%s: %s" what e
  in
  List.iter (fun n -> generated n (Table1.load n)) Table1.names;
  List.iter
    (fun s -> generated (Scaled.name s) (Scaled.load s))
    Scaled.scales;
  List.iter
    (fun (s : Fpva.spec) -> generated s.name (Fpva.generate s))
    (Fpva.family ());
  List.iter
    (fun (s : Synthetic.spec) -> generated s.name (Synthetic.generate s))
    (Scaling.family ~steps:5 ())

let () =
  Alcotest.run "designs"
    [ ( "rng",
        [ Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_different_seeds;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "pick/shuffle" `Quick test_rng_pick_shuffle;
          Alcotest.test_case "pick edge cases" `Quick test_rng_pick_edge_cases ] );
      ( "synthetic",
        [ Alcotest.test_case "matches spec" `Quick test_synthetic_matches_spec;
          Alcotest.test_case "deterministic" `Quick test_synthetic_deterministic;
          Alcotest.test_case "cluster structure" `Quick test_synthetic_cluster_structure;
          Alcotest.test_case "rejects bad specs" `Quick test_synthetic_rejects_bad_specs ] );
      ( "table1",
        [ Alcotest.test_case "rows" `Quick test_table1_rows;
          Alcotest.test_case "specs consistent" `Quick test_table1_specs_consistent;
          Alcotest.test_case "small designs generate" `Quick
            test_table1_small_designs_generate;
          Alcotest.test_case "unknown design" `Quick test_table1_unknown;
          Alcotest.test_case "generator names are text-safe" `Quick
            test_generator_names_text_safe ] );
      ( "extensions",
        [ Alcotest.test_case "scaling family" `Quick test_scaling_family_well_formed;
          Alcotest.test_case "scaling measures" `Slow test_scaling_measures;
          Alcotest.test_case "harness on S1" `Quick test_harness_measures_s1 ] );
      ( "end_to_end",
        [ Alcotest.test_case "S1 and S2 route fully" `Slow test_s1_s2_route_fully ] ) ]
