(* Robustness: budget accounting, parser totality under fuzzing, and
   engine totality and timeliness under fault injection.

   The contract under test is the one the batch runner leans on: the
   parser never raises on arbitrary text, the engine never raises on any
   parsed instance, and a budgeted run comes back promptly with its
   degradation recorded in the solution rather than thrown. *)

module Budget = Pacor_route.Budget

(* -------------------------------------------------------------------- *)
(* Budget unit tests.                                                    *)

let test_budget_unlimited () =
  let b = Budget.unlimited () in
  Budget.arm b;
  for _ = 1 to 10_000 do
    if not (Budget.tick b) then Alcotest.fail "unlimited tick tripped"
  done;
  Alcotest.(check bool) "alive" true (Budget.alive b);
  Alcotest.(check bool) "iteration" true (Budget.note_iteration b);
  Alcotest.(check bool) "never exhausted" true (Budget.exhausted b = None)

let test_budget_expansion_cap () =
  let b = Budget.create (Budget.limits ~max_expansions:5 ()) in
  Budget.arm b;
  for i = 1 to 5 do
    if not (Budget.tick b) then Alcotest.failf "tick %d tripped early" i
  done;
  Alcotest.(check bool) "6th tick trips" false (Budget.tick b);
  (match Budget.exhausted b with
   | Some Budget.Expansions -> ()
   | _ -> Alcotest.fail "expected Expansions exhaustion");
  Alcotest.(check bool) "alive after trip" false (Budget.alive b);
  (* Re-arming resets the allowance for the next engine run. *)
  Budget.arm b;
  Alcotest.(check bool) "re-armed tick" true (Budget.tick b);
  Alcotest.(check bool) "re-armed clean" true (Budget.exhausted b = None)

let test_budget_iteration_cap () =
  let b = Budget.create (Budget.limits ~max_iterations:2 ()) in
  Budget.arm b;
  Alcotest.(check bool) "round 1" true (Budget.note_iteration b);
  Alcotest.(check bool) "round 2" true (Budget.note_iteration b);
  Alcotest.(check bool) "round 3 trips" false (Budget.note_iteration b);
  (match Budget.exhausted b with
   | Some Budget.Iterations -> ()
   | _ -> Alcotest.fail "expected Iterations exhaustion");
  (* Exhaustion is sticky across every entry point. *)
  Alcotest.(check bool) "tick after trip" false (Budget.tick b)

let test_budget_deadline () =
  let b = Budget.create (Budget.limits ~timeout_s:0.01 ()) in
  Budget.arm b;
  let t0 = Unix.gettimeofday () in
  let rec spin () =
    if Budget.tick b then
      if Unix.gettimeofday () -. t0 > 5.0 then
        Alcotest.fail "deadline never tripped"
      else spin ()
  in
  spin ();
  (match Budget.exhausted b with
   | Some Budget.Deadline -> ()
   | _ -> Alcotest.fail "expected Deadline exhaustion");
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) "tripped promptly" true (elapsed < 1.0)

let test_budget_limits_validation () =
  (match Budget.limits ~timeout_s:(-1.0) () with
   | _ -> Alcotest.fail "negative timeout accepted"
   | exception Invalid_argument _ -> ());
  (match Budget.limits ~max_expansions:0 () with
   | _ -> Alcotest.fail "zero expansion cap accepted"
   | exception Invalid_argument _ -> ());
  let l = Budget.limits ~timeout_s:1.5 ~max_expansions:3 () in
  let r = Budget.relax l in
  Alcotest.(check (option (float 1e-9))) "timeout doubled" (Some 3.0)
    r.Budget.timeout_s;
  Alcotest.(check (option int)) "expansions doubled" (Some 6)
    r.Budget.max_expansions;
  Alcotest.(check bool) "no_limits is free" true
    (Budget.is_no_limits Budget.no_limits);
  Alcotest.(check bool) "relax of unlimited stays unlimited" true
    (Budget.is_no_limits (Budget.relax Budget.no_limits))

(* -------------------------------------------------------------------- *)
(* Corpus-text mutation fuzzing.                                         *)

let corpus_dir =
  match Sys.getenv_opt "DUNE_SOURCEROOT" with
  | Some root -> Filename.concat root "corpus"
  | None -> Filename.concat (Sys.getcwd ()) "../../../corpus"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let base_files =
  [ "corpus-dense.chip"; "corpus-pairs.chip"; "corpus-obstacles.chip";
    "corpus-bigcluster.chip";
    Filename.concat "degenerate" "corpus-empty-clusters.chip";
    Filename.concat "degenerate" "corpus-infeasible.chip" ]

let base_texts =
  lazy (List.map (fun f -> read_file (Filename.concat corpus_dir f)) base_files)

(* Adversarial lines the parser must reject (or survive) without raising:
   negative and overflowing dimensions, dangling references, inverted
   rectangles, bare keywords, raw bytes. *)
let poison_lines =
  [| "grid -4 0"; "grid 999999999 999999999"; "grid 4096 4096";
     "valve 0 -1 -1 01"; "valve 99 3 3 01XZ"; "cluster 7 42 43 44";
     "cluster 0 0 0"; "obstacle 9 9 0 0"; "obstacle -5 -5 100 100";
     "pin -3 7"; "delta -2"; "delta"; "valve"; "grid"; "name";
     "\x00\xff\x01 garbage \\ tab\there" |]

(* One deterministic text mutation, driven by fuzzer-chosen integers. *)
let mutate text (kind, a, b) =
  let n = String.length text in
  if n = 0 then text
  else
    match kind mod 6 with
    | 0 ->
      (* flip one byte *)
      let i = a mod n in
      String.mapi (fun j ch -> if j = i then Char.chr (b land 0xff) else ch) text
    | 1 ->
      (* delete a line *)
      let lines = String.split_on_char '\n' text in
      let k = a mod max 1 (List.length lines) in
      String.concat "\n" (List.filteri (fun i _ -> i <> k) lines)
    | 2 ->
      (* duplicate a line (duplicate valve/cluster ids, repeated grids) *)
      let lines = String.split_on_char '\n' text in
      let k = a mod max 1 (List.length lines) in
      String.concat "\n"
        (List.concat_map
           (fun (i, l) -> if i = k then [ l; l ] else [ l ])
           (List.mapi (fun i l -> (i, l)) lines))
    | 3 -> String.sub text 0 (a mod n) (* truncate mid-token *)
    | 4 -> text ^ "\n" ^ poison_lines.(a mod Array.length poison_lines) ^ "\n"
    | _ ->
      (* swap two lines (e.g. a valve line before its grid) *)
      let lines = Array.of_list (String.split_on_char '\n' text) in
      let len = Array.length lines in
      if len < 2 then text
      else begin
        let i = a mod len and j = b mod len in
        let t = lines.(i) in
        lines.(i) <- lines.(j);
        lines.(j) <- t;
        String.concat "\n" (Array.to_list lines)
      end

let gen_mutated =
  QCheck.(
    pair
      (int_range 0 (List.length base_files - 1))
      (list_of_size
         (QCheck.Gen.int_range 1 6)
         (triple (int_range 0 5) small_nat (int_range 0 1000))))

let mutated_text (base, muts) =
  List.fold_left mutate (List.nth (Lazy.force base_texts) base) muts

let prop_parser_never_raises =
  QCheck.Test.make ~name:"Problem_io.of_string is total on mutated corpus"
    ~count:300 gen_mutated
    (fun seed ->
      match Pacor.Problem_io.of_string (mutated_text seed) with
      | Ok _ | Error _ -> true
      | exception exn ->
        QCheck.Test.fail_reportf "of_string raised %s" (Printexc.to_string exn))

let prop_parser_roundtrip =
  QCheck.Test.make
    ~name:"accepted mutants re-serialise to a parse fixpoint" ~count:300
    gen_mutated
    (fun seed ->
      match Pacor.Problem_io.of_string (mutated_text seed) with
      | Error _ -> true
      | Ok p -> (
        let text = Pacor.Problem_io.to_string p in
        match Pacor.Problem_io.of_string text with
        | Error e ->
          QCheck.Test.fail_reportf "re-parse of accepted mutant failed: %s" e
        | Ok p2 ->
          if String.equal text (Pacor.Problem_io.to_string p2) then true
          else QCheck.Test.fail_reportf "re-serialisation is not a fixpoint"))

(* -------------------------------------------------------------------- *)
(* Engine fault injection: whatever instance survives parsing (falling
   back to the unmutated base when the mutant is rejected, so every trial
   exercises the engine), [Engine.run] under a 100 ms deadline must
   return Ok/Error — never raise — and come back within 2x the deadline. *)

let base_problems =
  lazy
    (List.map
       (fun text ->
         match Pacor.Problem_io.of_string text with
         | Ok p -> p
         | Error e -> Alcotest.failf "corpus base no longer parses: %s" e)
       (Lazy.force base_texts))

let deadline_s = 0.1

let prop_engine_total_under_deadline =
  QCheck.Test.make
    ~name:"Engine.run is total and prompt under a 100ms deadline" ~count:220
    gen_mutated
    (fun ((base, _) as seed) ->
      let problem =
        match Pacor.Problem_io.of_string (mutated_text seed) with
        | Ok p -> p
        | Error _ -> List.nth (Lazy.force base_problems) base
      in
      let config =
        { Pacor.Config.default with
          limits = Budget.limits ~timeout_s:deadline_s () }
      in
      let t0 = Unix.gettimeofday () in
      match Pacor.Engine.run ~config problem with
      | exception exn ->
        QCheck.Test.fail_reportf "Engine.run raised %s" (Printexc.to_string exn)
      | Ok _ | Error _ ->
        let dt = Unix.gettimeofday () -. t0 in
        if dt <= 2.0 *. deadline_s then true
        else
          QCheck.Test.fail_reportf "run took %.3fs under a %.1fs deadline" dt
            deadline_s)

(* -------------------------------------------------------------------- *)
(* Degradation surface: a starved run records its exhaustion in the
   solution instead of raising or erroring. *)

let test_starved_run_reports_degradation () =
  let config =
    { Pacor.Config.default with limits = Budget.limits ~max_expansions:1 () }
  in
  (* Only the clustered corpus instances: the degenerate ones route their
     singleton valves through min-cost flow alone, pop nothing from the
     search queue, and so legitimately finish under any expansion cap. *)
  let searchy xs = List.filteri (fun i _ -> i < 4) xs in
  List.iter2
    (fun file problem ->
      match Pacor.Engine.run ~config problem with
      | Error e ->
        Alcotest.failf "%s: starved run should degrade, not error: %s" file
          e.message
      | Ok sol ->
        (match sol.Pacor.Solution.budget_exhausted with
         | Some Budget.Expansions -> ()
         | Some r ->
           Alcotest.failf "%s: wrong exhaustion reason %s" file
             (Budget.reason_label r)
         | None -> Alcotest.failf "%s: exhaustion not recorded" file);
        Alcotest.(check bool) (file ^ " marked degraded") true
          (Pacor.Solution.degraded sol);
        Alcotest.(check bool) (file ^ " has stage outcomes") true
          (sol.Pacor.Solution.stage_outcomes <> []))
    (searchy base_files)
    (searchy (Lazy.force base_problems))

(* An FPVA lattice edit whose exact candidate selection runs for minutes
   unbudgeted: the run's deadline must cut the selection short, and the
   engine must come back near the deadline with a degraded solution whose
   only defects are the valves it had no time to escape. *)
let test_selection_honours_deadline () =
  let spec =
    { Pacor_designs.Fpva.name = "fpva14-ring3"; rows = 14; cols = 14; pitch = 5;
      group = 7; seed = 3L; delta = 2 }
  in
  let problem =
    match
      Pacor.Problem.move_valve (Pacor_designs.Fpva.generate_exn spec) 157
        (Pacor_geom.Point.make 66 24)
    with
    | Ok p -> p
    | Error e -> Alcotest.failf "move_valve: %s" e
  in
  let deadline_s = 0.5 in
  let config =
    { Pacor.Config.default with limits = Budget.limits ~timeout_s:deadline_s () }
  in
  let t0 = Unix.gettimeofday () in
  let result = Pacor.Engine.run ~config problem in
  let dt = Unix.gettimeofday () -. t0 in
  if dt > 2.0 *. deadline_s then
    Alcotest.failf "run took %.3fs under a %.1fs deadline" dt deadline_s;
  match result with
  | Error e -> Alcotest.failf "engine error in %s: %s" e.stage e.message
  | Ok sol ->
    Alcotest.(check bool) "deadline recorded" true
      (sol.Pacor.Solution.budget_exhausted = Some Budget.Deadline);
    Alcotest.(check bool) "degraded" true (Pacor.Solution.degraded sol);
    let contains hay needle =
      let nh = String.length hay and nn = String.length needle in
      let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
      go 0
    in
    (match Pacor.Solution.validate sol with
     | Ok () -> ()
     | Error es ->
       (match List.filter (fun e -> not (contains e "has no control pin")) es with
        | [] -> ()
        | bad -> Alcotest.failf "design-rule violations: %s" (String.concat "; " bad)))

let () =
  Alcotest.run "resilience"
    [ ( "budget",
        [ Alcotest.test_case "unlimited is free" `Quick test_budget_unlimited;
          Alcotest.test_case "expansion cap" `Quick test_budget_expansion_cap;
          Alcotest.test_case "iteration cap" `Quick test_budget_iteration_cap;
          Alcotest.test_case "wall-clock deadline" `Quick test_budget_deadline;
          Alcotest.test_case "limits validation and relax" `Quick
            test_budget_limits_validation ] );
      ( "fault injection",
        [ QCheck_alcotest.to_alcotest prop_parser_never_raises;
          QCheck_alcotest.to_alcotest prop_parser_roundtrip;
          QCheck_alcotest.to_alcotest prop_engine_total_under_deadline ] );
      ( "degradation",
        [ Alcotest.test_case "starved run reports exhaustion" `Quick
            test_starved_run_reports_degradation;
          Alcotest.test_case "selection honours the deadline" `Quick
            test_selection_honours_deadline ] ) ]
