(* Regression corpus: committed instance files with frozen expectations.
   These exercise the text format end to end and pin the flow's behaviour
   on four characteristic chip styles (dense clusters, pairs only, heavy
   obstacles, large clusters with delta = 2). *)

let corpus_dir =
  (* Tests run from the build sandbox; the corpus is reached relative to
     the project root recorded by dune. *)
  match Sys.getenv_opt "DUNE_SOURCEROOT" with
  | Some root -> Filename.concat root "corpus"
  | None -> Filename.concat (Sys.getcwd ()) "../../../corpus"

let load name =
  let path = Filename.concat corpus_dir (name ^ ".chip") in
  match Pacor.Problem_io.load ~path with
  | Ok p -> p
  | Error e -> Alcotest.failf "cannot load %s: %s" path e

let route problem =
  match Pacor.Engine.run problem with
  | Ok sol -> sol
  | Error e -> Alcotest.failf "engine failed: %s" e.message

let check_routes name ~valves ~lm_clusters =
  let problem = load name in
  Alcotest.(check int) "valves" valves (Pacor.Problem.valve_count problem);
  Alcotest.(check int) "lm clusters" lm_clusters
    (List.length problem.Pacor.Problem.lm_clusters);
  let sol = route problem in
  let stats = Pacor.Solution.stats sol in
  Alcotest.(check (float 1e-9)) "completion" 1.0 stats.completion;
  (match Pacor.Solution.validate sol with
   | Ok () -> ()
   | Error es -> Alcotest.failf "invalid: %s" (String.concat "; " es));
  stats

let test_dense () =
  let stats = check_routes "corpus-dense" ~valves:16 ~lm_clusters:4 in
  Alcotest.(check int) "all clusters counted" 4 stats.clusters

let test_pairs () =
  let stats = check_routes "corpus-pairs" ~valves:12 ~lm_clusters:5 in
  (* Pairs with delta = 1 always match. *)
  Alcotest.(check int) "all pairs matched" 5 stats.matched_clusters

let test_obstacles () =
  ignore (check_routes "corpus-obstacles" ~valves:10 ~lm_clusters:2)

let test_bigcluster () =
  let problem = load "corpus-bigcluster" in
  Alcotest.(check int) "delta preserved" 2 problem.Pacor.Problem.delta;
  ignore (check_routes "corpus-bigcluster" ~valves:14 ~lm_clusters:2)

let test_roundtrip_stability () =
  (* Re-serialising a corpus file is the identity. *)
  List.iter
    (fun name ->
       let problem = load name in
       let text = Pacor.Problem_io.to_string problem in
       match Pacor.Problem_io.of_string text with
       | Ok again ->
         Alcotest.(check string) (name ^ " fixpoint") text
           (Pacor.Problem_io.to_string again)
       | Error e -> Alcotest.failf "%s reparse: %s" name e)
    [ "corpus-dense"; "corpus-pairs"; "corpus-obstacles"; "corpus-bigcluster" ]

let load_degenerate name =
  let path =
    Filename.concat (Filename.concat corpus_dir "degenerate") (name ^ ".chip")
  in
  match Pacor.Problem_io.load ~path with
  | Ok p -> p
  | Error e -> Alcotest.failf "cannot load %s: %s" path e

let test_empty_clusters () =
  (* Zero LM clusters is a valid (if degenerate) instance: the LM stage
     has nothing to do but the flow still routes every valve to a pin. *)
  let problem = load_degenerate "corpus-empty-clusters" in
  Alcotest.(check int) "no lm clusters" 0
    (List.length problem.Pacor.Problem.lm_clusters);
  let sol = route problem in
  Alcotest.(check (float 1e-9)) "completion" 1.0
    (Pacor.Solution.stats sol).completion;
  (match Pacor.Solution.validate sol with
   | Ok () -> ()
   | Error es -> Alcotest.failf "invalid: %s" (String.concat "; " es))

let test_infeasible () =
  (* A walled-in valve has no escape path. The engine must degrade to a
     diagnosable partial solution — Ok with a validation failure naming
     the pinless cluster — and must not raise or return a hard error. *)
  let problem = load_degenerate "corpus-infeasible" in
  match Pacor.Engine.run problem with
  | Error e ->
    Alcotest.failf "engine should degrade, not fail hard: %s/%s" e.stage
      e.message
  | Ok sol ->
    let stats = Pacor.Solution.stats sol in
    Alcotest.(check bool) "incomplete" true (stats.completion < 1.0);
    (match Pacor.Solution.validate sol with
     | Ok () -> Alcotest.fail "walled-in valve should fail validation"
     | Error es ->
       let contains hay needle =
         let nh = String.length hay and nn = String.length needle in
         let rec go i =
           i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
         in
         go 0
       in
       let mentions_pin =
         List.exists (fun e -> contains e "no control pin") es
       in
       Alcotest.(check bool) "diagnoses missing pin" true mentions_pin)

let test_variants_on_corpus () =
  (* Every flow variant completes and validates on every corpus file. *)
  List.iter
    (fun name ->
       let problem = load name in
       List.iter
         (fun variant ->
            match Pacor.Engine.run ~config:(Pacor.Config.make ~variant ()) problem with
            | Error e -> Alcotest.failf "%s/%s: %s" name e.stage e.message
            | Ok sol ->
              Alcotest.(check (float 1e-9))
                (name ^ "/" ^ Pacor.Config.variant_name variant)
                1.0
                (Pacor.Solution.stats sol).completion;
              (match Pacor.Solution.validate sol with
               | Ok () -> ()
               | Error es ->
                 Alcotest.failf "%s/%s invalid: %s" name
                   (Pacor.Config.variant_name variant)
                   (String.concat "; " es)))
         [ Pacor.Config.Full; Pacor.Config.Without_selection; Pacor.Config.Detour_first ])
    [ "corpus-dense"; "corpus-pairs"; "corpus-obstacles"; "corpus-bigcluster" ]

let test_scaled1 () =
  (* The smallest synthetic scaled design, routed flat: its score
     (routed valves, matched clusters, total length) is pinned. *)
  let problem = Pacor_designs.Scaled.load_exn 1 in
  let sol = route problem in
  let stats = Pacor.Solution.stats sol in
  let valves = Pacor.Problem.valve_count problem in
  Alcotest.(check int) "routed valves" 26
    (int_of_float (Float.round (stats.completion *. float_of_int valves)));
  Alcotest.(check int) "matched clusters" 7 stats.matched_clusters;
  Alcotest.(check int) "total length" 653 stats.total_length;
  match Pacor.Solution.validate sol with
  | Ok () -> ()
  | Error es -> Alcotest.failf "invalid: %s" (String.concat "; " es)

let () =
  Alcotest.run "corpus"
    [ ( "instances",
        [ Alcotest.test_case "dense clusters" `Quick test_dense;
          Alcotest.test_case "pairs only" `Quick test_pairs;
          Alcotest.test_case "heavy obstacles" `Quick test_obstacles;
          Alcotest.test_case "large clusters, delta 2" `Quick test_bigcluster;
          Alcotest.test_case "serialisation fixpoint" `Quick test_roundtrip_stability;
          Alcotest.test_case "zero lm clusters" `Quick test_empty_clusters;
          Alcotest.test_case "walled-in valve degrades" `Quick test_infeasible;
          Alcotest.test_case "all variants route" `Slow test_variants_on_corpus;
          Alcotest.test_case "Scaled1 flat score" `Quick test_scaled1 ] ) ]
