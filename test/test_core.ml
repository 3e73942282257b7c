open Pacor_geom
open Pacor_grid
open Pacor_valve
open Pacor

let seq s =
  match Activation.sequence_of_string s with
  | Ok x -> x
  | Error e -> Alcotest.failf "bad sequence: %s" e

let mk_valve id x y s = Valve.make ~id ~position:(Point.make x y) ~sequence:(seq s)

(* A small hand-made problem: one 2-valve LM cluster, one 3-valve LM
   cluster, one lone valve, on a 20x20 grid with generous pins.
   Sequences: group 0 -> "011", group 1 -> "101", group 2 -> "110". *)
let small_problem () =
  let a0 = mk_valve 0 4 4 "011" and a1 = mk_valve 1 4 10 "011" in
  let b0 = mk_valve 2 12 5 "101" and b1 = mk_valve 3 15 9 "101" and b2 = mk_valve 4 10 12 "101" in
  let lone = mk_valve 5 8 16 "110" in
  let grid = Routing_grid.create ~width:20 ~height:20 () in
  let pins =
    List.filter_map
      (fun i ->
         let b = Routing_grid.boundary_points grid in
         List.nth_opt b (i * 6))
      (List.init 12 Fun.id)
  in
  let lm_clusters =
    [ Cluster.make_exn ~id:0 ~length_matched:true [ a0; a1 ];
      Cluster.make_exn ~id:1 ~length_matched:true [ b0; b1; b2 ] ]
  in
  Problem.create_exn ~name:"unit" ~grid ~valves:[ a0; a1; b0; b1; b2; lone ]
    ~lm_clusters ~pins ~delta:1 ()

(* ---------- Problem validation ---------- *)

let test_problem_ok () =
  let p = small_problem () in
  Alcotest.(check int) "valves" 6 (Problem.valve_count p);
  Alcotest.(check bool) "find valve" true (Problem.find_valve p 3 <> None);
  Alcotest.(check bool) "missing valve" true (Problem.find_valve p 99 = None)

let test_problem_rejects_bad_inputs () =
  let grid = Routing_grid.create ~width:10 ~height:10 () in
  let v = mk_valve 0 5 5 "01" in
  let pins = [ Point.make 0 5 ] in
  (* No valves. *)
  Alcotest.(check bool) "no valves" true
    (Result.is_error (Problem.create ~grid ~valves:[] ~pins ()));
  (* Valve out of bounds. *)
  let oob = mk_valve 1 50 50 "01" in
  Alcotest.(check bool) "valve oob" true
    (Result.is_error (Problem.create ~grid ~valves:[ oob ] ~pins ()));
  (* Interior pin. *)
  Alcotest.(check bool) "interior pin" true
    (Result.is_error (Problem.create ~grid ~valves:[ v ] ~pins:[ Point.make 5 6 ] ()));
  (* Duplicate pins. *)
  Alcotest.(check bool) "duplicate pin" true
    (Result.is_error
       (Problem.create ~grid ~valves:[ v ] ~pins:[ Point.make 0 5; Point.make 0 5 ] ()));
  (* Fewer pins than valves. *)
  let v2 = mk_valve 1 6 6 "01" in
  Alcotest.(check bool) "pin shortage" true
    (Result.is_error (Problem.create ~grid ~valves:[ v; v2 ] ~pins ()));
  (* Negative delta. *)
  Alcotest.(check bool) "negative delta" true
    (Result.is_error (Problem.create ~grid ~valves:[ v ] ~pins ~delta:(-1) ()));
  (* Seed cluster not flagged length-matched. *)
  let c = Cluster.make_exn ~id:0 ~length_matched:false [ v ] in
  Alcotest.(check bool) "unflagged seed" true
    (Result.is_error (Problem.create ~grid ~valves:[ v ] ~lm_clusters:[ c ] ~pins ()))

let test_problem_valve_on_obstacle () =
  let grid =
    Routing_grid.create ~width:10 ~height:10
      ~obstacles:[ Rect.make ~x0:5 ~y0:5 ~x1:5 ~y1:5 ] ()
  in
  let v = mk_valve 0 5 5 "01" in
  Alcotest.(check bool) "valve on obstacle" true
    (Result.is_error (Problem.create ~grid ~valves:[ v ] ~pins:[ Point.make 0 5 ] ()))

(* Names the instance text cannot carry: before [create] refused them,
   [of_string (to_string p)] gave "a  b" back as "a b", " a" as "a" and
   "x#1" as "x" (so the fingerprint moved across a journal round trip),
   and a newline rendered text that no longer parsed. *)
let test_problem_rejects_untextable_names () =
  let grid = Routing_grid.create ~width:10 ~height:10 () in
  let v = mk_valve 0 5 5 "01" in
  let create name = Problem.create ~name ~grid ~valves:[ v ] ~pins:[ Point.make 0 5 ] () in
  List.iter
    (fun name ->
       Alcotest.(check bool) (Printf.sprintf "%S rejected" name) true
         (Result.is_error (create name)))
    [ "a  b"; " a"; "a "; "x#1"; "a\nb"; "lines\n"; "a\t"; "a\r"; "\t" ];
  List.iter
    (fun name ->
       match create name with
       | Error e -> Alcotest.failf "%S refused: %s" name e
       | Ok p -> (
         match Problem_io.of_string (Problem_io.to_string p) with
         | Error e -> Alcotest.failf "%S: reparse failed: %s" name e
         | Ok p' ->
           Alcotest.(check string) (Printf.sprintf "%S round trip" name) name p'.Problem.name;
           Alcotest.(check string) "same fingerprint" (Problem_io.fingerprint p)
             (Problem_io.fingerprint p')))
    [ ""; "a"; "a b"; "Chip2-v1"; "delta=3"; "a\tb"; "\ta"; "a \t b"; "scale-24x24-0" ]

(* ---------- Problem IO ---------- *)

let test_problem_io_roundtrip () =
  let p = small_problem () in
  let text = Problem_io.to_string p in
  match Problem_io.of_string text with
  | Error e -> Alcotest.failf "reparse failed: %s" e
  | Ok p' ->
    Alcotest.(check int) "valves preserved" (Problem.valve_count p) (Problem.valve_count p');
    Alcotest.(check int) "pins preserved" (Problem.pin_count p) (Problem.pin_count p');
    Alcotest.(check int) "clusters preserved"
      (List.length p.Problem.lm_clusters)
      (List.length p'.Problem.lm_clusters);
    Alcotest.(check int) "delta preserved" p.Problem.delta p'.Problem.delta;
    (* Second roundtrip is a fixpoint. *)
    Alcotest.(check string) "fixpoint" text (Problem_io.to_string p')

let test_problem_io_parse_errors () =
  let check_err name text =
    Alcotest.(check bool) name true (Result.is_error (Problem_io.of_string text))
  in
  check_err "missing grid" "name x\nvalve 0 1 1 01\npin 0 0\n";
  check_err "garbage directive" "grid 5 5\nfrobnicate 1 2\n";
  check_err "bad sequence" "grid 9 9\nvalve 0 1 1 013\npin 0 0\n";
  check_err "unknown cluster member" "grid 9 9\nvalve 0 1 1 01\ncluster 0 0 7\npin 0 4\n"

let test_problem_io_comments () =
  let text =
    "# a comment\ngrid 9 9\n\nvalve 0 3 3 01 # trailing comment\nvalve 1 5 5 0X\npin 0 4\npin 0 5\n"
  in
  match Problem_io.of_string text with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok p -> Alcotest.(check int) "two valves" 2 (Problem.valve_count p)

(* ---------- Routed helpers ---------- *)

let test_routed_pair () =
  let a = mk_valve 0 2 2 "01" and b = mk_valve 1 7 2 "01" in
  let cluster = Cluster.make_exn ~id:0 ~length_matched:true [ a; b ] in
  let path = Path.of_points (List.init 6 (fun i -> Point.make (i + 2) 2)) in
  let r = Routed.make_pair cluster ~a:0 ~b:1 ~path in
  Alcotest.(check int) "internal length" 5 (Routed.internal_length r);
  (match Routed.start_cells r with
   | [ m ] -> Alcotest.(check bool) "middle on path" true (Path.mem path m)
   | _ -> Alcotest.fail "expected one start cell");
  (match Routed.spread r with
   | Some s -> Alcotest.(check int) "odd length spread 1" 1 s
   | None -> Alcotest.fail "expected spread");
  (match Routed.pair_halves r with
   | Some (h1, h2) ->
     Alcotest.(check int) "halves sum" 5 (h1 + h2);
     Alcotest.(check int) "near halves" 1 (abs (h1 - h2))
   | None -> Alcotest.fail "expected halves")

let test_routed_singleton () =
  let a = mk_valve 0 3 3 "01" in
  let cluster = Cluster.make_exn ~id:0 ~length_matched:false [ a ] in
  let r = Routed.make_singleton cluster in
  Alcotest.(check int) "no internal length" 0 (Routed.internal_length r);
  Alcotest.(check (list (Alcotest.testable Point.pp Point.equal))) "starts at valve"
    [ Point.make 3 3 ] (Routed.start_cells r);
  Alcotest.(check bool) "no spread" true (Routed.spread r = None)

let test_routed_plain_start_cells () =
  let a = mk_valve 0 2 2 "01" and b = mk_valve 1 4 2 "01" in
  let cluster = Cluster.make_exn ~id:0 ~length_matched:false [ a; b ] in
  let path = Path.of_points [ Point.make 2 2; Point.make 3 2; Point.make 4 2 ] in
  let r = Routed.make_plain cluster ~paths:[ path ] ~claimed:Point.Set.empty in
  (* Ordinary clusters may escape from any claimed cell. *)
  Alcotest.(check int) "all cells are start cells" 3 (List.length (Routed.start_cells r))

(* ---------- Engine end-to-end ---------- *)

let run_ok ?config p =
  match Engine.run ?config p with
  | Ok sol -> sol
  | Error e -> Alcotest.failf "engine failed at %s: %s" e.Engine.stage e.Engine.message

let test_engine_small_problem () =
  let sol = run_ok (small_problem ()) in
  let stats = Solution.stats sol in
  Alcotest.(check int) "two multi clusters" 2 stats.clusters;
  Alcotest.(check (float 1e-9)) "full completion" 1.0 stats.completion;
  Alcotest.(check int) "both matched" 2 stats.matched_clusters;
  (match Solution.validate sol with
   | Ok () -> ()
   | Error es -> Alcotest.failf "invalid solution: %s" (String.concat "; " es))

let test_engine_deterministic () =
  let s1 = Solution.stats (run_ok (small_problem ())) in
  let s2 = Solution.stats (run_ok (small_problem ())) in
  Alcotest.(check int) "same total" s1.total_length s2.total_length;
  Alcotest.(check int) "same matched" s1.matched_clusters s2.matched_clusters

let test_engine_variants () =
  let p = small_problem () in
  List.iter
    (fun variant ->
       let sol = run_ok ~config:(Config.make ~variant ()) p in
       let stats = Solution.stats sol in
       Alcotest.(check (float 1e-9))
         (Config.variant_name variant ^ " completes")
         1.0 stats.completion;
       match Solution.validate sol with
       | Ok () -> ()
       | Error es ->
         Alcotest.failf "%s invalid: %s" (Config.variant_name variant)
           (String.concat "; " es))
    [ Config.Full; Config.Without_selection; Config.Detour_first ]

let test_engine_lengths_within_delta () =
  let sol = run_ok (small_problem ()) in
  List.iter
    (fun (rc : Solution.routed_cluster) ->
       if rc.matched then begin
         let lengths = List.map snd rc.lengths in
         let spread =
           List.fold_left max min_int lengths - List.fold_left min max_int lengths
         in
         Alcotest.(check bool) "spread within delta" true (spread <= 1);
         Alcotest.(check bool) "lengths positive" true (List.for_all (fun l -> l > 0) lengths)
       end)
    sol.Solution.clusters

let test_engine_congested_declusters () =
  (* 9x9 grid with a pair of compatible valves but walls that make their
     joint routing awkward; engine must still complete via declustering if
     needed. *)
  let grid =
    Routing_grid.create ~width:9 ~height:9
      ~obstacles:[ Rect.make ~x0:4 ~y0:1 ~x1:4 ~y1:6 ] ()
  in
  let a = mk_valve 0 2 4 "01" and b = mk_valve 1 6 4 "01" in
  let pins =
    [ Point.make 0 4; Point.make 8 4; Point.make 4 0; Point.make 4 8 ]
  in
  let lm = [ Cluster.make_exn ~id:0 ~length_matched:true [ a; b ] ] in
  let p = Problem.create_exn ~grid ~valves:[ a; b ] ~lm_clusters:lm ~pins () in
  let sol = run_ok p in
  Alcotest.(check (float 1e-9)) "completes despite wall" 1.0 (Solution.stats sol).completion

let test_engine_single_valve_chip () =
  let grid = Routing_grid.create ~width:6 ~height:6 () in
  let v = mk_valve 0 3 3 "0" in
  let p = Problem.create_exn ~grid ~valves:[ v ] ~pins:[ Point.make 0 3 ] () in
  let sol = run_ok p in
  let stats = Solution.stats sol in
  Alcotest.(check (float 1e-9)) "routed" 1.0 stats.completion;
  Alcotest.(check int) "no multi clusters" 0 stats.clusters;
  Alcotest.(check int) "channel length is escape only" 3 stats.total_length

(* ---------- Solution validation catches corruption ---------- *)

(* [occupies] answers [cluster_cells] membership without building the
   union: the serving layer's and repair's dirty predicates rest on it. *)
let prop_occupies_is_cluster_cells =
  QCheck.Test.make ~count:20 ~name:"occupies = mem of cluster_cells, every cell"
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let spec =
        { Pacor_designs.Synthetic.name = "occupies"; width = 20; height = 16;
          obstacle_cells = 12; lm_cluster_sizes = [ 2; 3 ]; singleton_valves = 3;
          pin_count = 14; seed = Int64.of_int seed; delta = 1 }
      in
      match Pacor_designs.Synthetic.generate spec with
      | Error _ -> QCheck.assume_fail ()
      | Ok p -> (
        match Engine.run p with
        | Error _ -> QCheck.assume_fail ()
        | Ok sol ->
          List.for_all
            (fun rc ->
               let cells = Solution.cluster_cells rc in
               List.for_all
                 (fun i ->
                    let q = Point.make (i mod 20) (i / 20) in
                    Solution.occupies rc q = Point.Set.mem q cells)
                 (List.init (20 * 16) Fun.id))
            sol.Solution.clusters))

let test_validate_detects_unmatched_lie () =
  let sol = run_ok (small_problem ()) in
  (* Forge a matched flag on a cluster with a too-large spread by tampering
     with delta: re-wrap the solution with delta = 0 and the pair cluster
     (odd distance) must fail validation if still marked matched. *)
  let tampered =
    { sol with
      Solution.problem =
        (match
           Problem.create ~name:"tampered"
             ~grid:sol.Solution.problem.Problem.grid
             ~valves:sol.Solution.problem.Problem.valves
             ~lm_clusters:sol.Solution.problem.Problem.lm_clusters
             ~pins:sol.Solution.problem.Problem.pins ~delta:0 ()
         with
         | Ok p -> p
         | Error e -> Alcotest.failf "tamper failed: %s" e) }
  in
  (* With delta = 0 some matched cluster may legitimately still satisfy the
     constraint; only check that validate runs and flags nothing new when
     spreads are 0, or flags the pair when its spread is 1. *)
  let has_spread_one =
    List.exists
      (fun (rc : Solution.routed_cluster) ->
         rc.matched && Routed.spread rc.routed = Some 1)
      sol.Solution.clusters
  in
  match Solution.validate tampered with
  | Ok () -> Alcotest.(check bool) "no spread-1 matched cluster" false has_spread_one
  | Error _ -> Alcotest.(check bool) "caught the lie" true has_spread_one

(* ---------- Report ---------- *)

let test_report_row_and_averages () =
  let p = small_problem () in
  let stats_of variant = Solution.stats (run_ok ~config:(Config.make ~variant ()) p) in
  let row =
    Report.row_of_stats ~design:"unit" ~without_sel:(stats_of Config.Without_selection)
      ~detour_first:(stats_of Config.Detour_first) ~pacor:(stats_of Config.Full)
  in
  Alcotest.(check int) "clusters" 2 row.Report.clusters;
  let (mw, md, mp), _, _, _ = Report.averages [ row ] in
  Alcotest.(check (float 1e-9)) "pacor baseline" 1.0 mp;
  Alcotest.(check bool) "ratios positive" true (mw > 0.0 && md > 0.0)

let test_report_paper_reference () =
  Alcotest.(check int) "seven designs" 7 (List.length Report.paper_table2);
  let chip2 = List.find (fun r -> r.Report.design = "Chip2") Report.paper_table2 in
  Alcotest.(check int) "chip2 ties" chip2.Report.pacor.Report.matched
    chip2.Report.without_sel.Report.matched

let contains_substring haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

let test_report_print_smoke () =
  let buf = Buffer.create 1024 in
  let ppf = Format.formatter_of_buffer buf in
  Report.print_table ppf Report.paper_table2;
  Format.pp_print_flush ppf ();
  let out = Buffer.contents buf in
  Alcotest.(check bool) "mentions Chip1" true (contains_substring out "Chip1");
  Alcotest.(check bool) "has an Avg. row" true (contains_substring out "Avg.")

let test_report_shape_checks_on_paper () =
  let checks = Report.shape_checks ~measured:Report.paper_table2 in
  List.iter
    (fun (name, ok) -> Alcotest.(check bool) name true ok)
    checks

let () =
  Alcotest.run "core"
    [ ( "problem",
        [ Alcotest.test_case "valid problem" `Quick test_problem_ok;
          Alcotest.test_case "rejects bad inputs" `Quick test_problem_rejects_bad_inputs;
          Alcotest.test_case "valve on obstacle" `Quick test_problem_valve_on_obstacle;
          Alcotest.test_case "rejects names the text cannot carry" `Quick
            test_problem_rejects_untextable_names ] );
      ( "problem_io",
        [ Alcotest.test_case "roundtrip" `Quick test_problem_io_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_problem_io_parse_errors;
          Alcotest.test_case "comments" `Quick test_problem_io_comments ] );
      ( "routed",
        [ Alcotest.test_case "pair" `Quick test_routed_pair;
          Alcotest.test_case "singleton" `Quick test_routed_singleton;
          Alcotest.test_case "plain start cells" `Quick test_routed_plain_start_cells ] );
      ( "engine",
        [ Alcotest.test_case "small problem" `Quick test_engine_small_problem;
          Alcotest.test_case "deterministic" `Quick test_engine_deterministic;
          Alcotest.test_case "all variants" `Quick test_engine_variants;
          Alcotest.test_case "lengths within delta" `Quick test_engine_lengths_within_delta;
          Alcotest.test_case "congested chip" `Quick test_engine_congested_declusters;
          Alcotest.test_case "single valve chip" `Quick test_engine_single_valve_chip ] );
      ( "solution",
        [ Alcotest.test_case "validate detects stale matched flags" `Quick
            test_validate_detects_unmatched_lie;
          QCheck_alcotest.to_alcotest prop_occupies_is_cluster_cells ] );
      ( "report",
        [ Alcotest.test_case "row and averages" `Quick test_report_row_and_averages;
          Alcotest.test_case "paper reference table" `Quick test_report_paper_reference;
          Alcotest.test_case "print smoke" `Quick test_report_print_smoke;
          Alcotest.test_case "shape checks hold on paper data" `Quick
            test_report_shape_checks_on_paper ] ) ]
