(* Fault injection and online repair.

   The contract under test: injection is a pure function of (seed,
   solution); repair touches only the clusters a fault dirties — every
   untouched cluster comes back byte-identical — and its result passes the
   independent validator; an unrepairable fault quarantines its valves
   instead of raising; and a starved repair degrades instead of hanging. *)

open Pacor_geom
open Pacor_valve
open Pacor_fault

module Rng = Pacor_designs.Rng
module Budget = Pacor_route.Budget

(* One routed FPVA baseline, shared across tests (routing it is the
   expensive part; repair itself is cheap). *)
let baseline =
  lazy
    (let spec = List.hd (Pacor_designs.Fpva.family ()) in
     let problem = Pacor_designs.Fpva.generate_exn spec in
     match Pacor.Engine.run problem with
     | Ok sol -> sol
     | Error e -> Alcotest.failf "fpva baseline failed at %s: %s" e.stage e.message)

let cluster_id (c : Pacor.Solution.routed_cluster) =
  c.routed.Pacor.Routed.cluster.Cluster.id

let find_cluster (sol : Pacor.Solution.t) id =
  List.find_opt (fun c -> cluster_id c = id) sol.Pacor.Solution.clusters

let cluster_cells (c : Pacor.Solution.routed_cluster) =
  let internal = Point.Set.elements c.routed.Pacor.Routed.claimed in
  match c.escape with
  | None -> internal
  | Some (e : Pacor_flow.Escape.routed) ->
    internal @ Pacor_grid.Path.points e.path

(* ---------- FPVA generator ---------- *)

let test_fpva_family_routes () =
  List.iter
    (fun spec ->
       match Pacor_designs.Fpva.generate spec with
       | Error e -> Alcotest.failf "%s: %s" spec.Pacor_designs.Fpva.name e
       | Ok p ->
         Alcotest.(check int)
           (spec.Pacor_designs.Fpva.name ^ " valves")
           (spec.Pacor_designs.Fpva.rows * spec.Pacor_designs.Fpva.cols)
           (Pacor.Problem.valve_count p))
    (Pacor_designs.Fpva.family ());
  (* The smallest member routes completely with every pair matched. *)
  let sol = Lazy.force baseline in
  let stats = Pacor.Solution.stats sol in
  Alcotest.(check (float 1e-9)) "completion" 1.0 stats.completion;
  Alcotest.(check bool) "validates" true
    (Result.is_ok (Pacor.Solution.validate sol))

let test_fpva_deterministic () =
  let spec = List.hd (Pacor_designs.Fpva.family ()) in
  let p1 = Pacor_designs.Fpva.generate_exn spec in
  let p2 = Pacor_designs.Fpva.generate_exn spec in
  Alcotest.(check string) "same instance"
    (Pacor.Problem_io.to_string p1)
    (Pacor.Problem_io.to_string p2)

(* ---------- injection ---------- *)

let test_inject_deterministic () =
  let sol = Lazy.force baseline in
  let draw () =
    Fault.inject ~rng:(Rng.create ~seed:77L) ~rate:0.2 sol
  in
  let a = draw () and b = draw () in
  Alcotest.(check int) "same count" (List.length a) (List.length b);
  List.iter2
    (fun fa fb ->
       Alcotest.(check bool) (Format.asprintf "%a" Fault.pp fa) true
         (fa = fb))
    a b;
  Alcotest.(check bool) "different seed differs" true
    (not
       (List.for_all2 ( = ) a
          (Fault.inject ~rng:(Rng.create ~seed:78L) ~rate:0.2 sol)))

let test_inject_sites_distinct_and_on_chip () =
  let sol = Lazy.force baseline in
  let faults = Fault.inject ~rng:(Rng.create ~seed:5L) ~rate:0.5 sol in
  let valves = sol.Pacor.Solution.problem.Pacor.Problem.valves in
  let valve_cells = List.map (fun (v : Valve.t) -> v.position) valves in
  let pins = sol.Pacor.Solution.problem.Pacor.Problem.pins in
  (* Cell/segment faults never land on a valve cell or a candidate pin. *)
  List.iter
    (fun p ->
       Alcotest.(check bool) "off valve cells" false
         (List.exists (Point.equal p) valve_cells);
       Alcotest.(check bool) "off pins" false (List.exists (Point.equal p) pins))
    (Fault.blocked_cells faults);
  (* Stuck ids are real valves, each at most once. *)
  let stuck = Fault.stuck_valves faults in
  Alcotest.(check int) "stuck ids unique" (List.length stuck)
    (List.length (List.sort_uniq Int.compare stuck));
  List.iter
    (fun id ->
       Alcotest.(check bool) "stuck id exists" true
         (List.exists (fun (v : Valve.t) -> v.id = id) valves))
    stuck

let test_inject_zero_rate () =
  let sol = Lazy.force baseline in
  Alcotest.(check int) "no faults" 0
    (List.length (Fault.inject ~rng:(Rng.create ~seed:1L) ~rate:0.0 sol))

(* ---------- spec parsing ---------- *)

let test_parse_spec () =
  (match Fault.parse_spec "rate=0.05,seed=42,stuck=3,stuck-open=7,cell=10:4,leak=2:3-2:4" with
   | Error e -> Alcotest.failf "good spec rejected: %s" e
   | Ok spec ->
     Alcotest.(check (float 1e-9)) "rate" 0.05 spec.Fault.rate;
     Alcotest.(check int64) "seed" 42L spec.Fault.seed;
     Alcotest.(check int) "explicit faults" 4 (List.length spec.Fault.explicit);
     Alcotest.(check bool) "stuck closed" true
       (List.exists
          (( = ) (Fault.Stuck_valve { valve = 3; stuck_open = false }))
          spec.Fault.explicit);
     Alcotest.(check bool) "blocked cell" true
       (List.exists
          (( = ) (Fault.Blocked_cell (Point.make 10 4)))
          spec.Fault.explicit));
  List.iter
    (fun bad ->
       Alcotest.(check bool) ("rejects " ^ bad) true
         (Result.is_error (Fault.parse_spec bad)))
    [ "rate=banana"; "seed=x"; "stuck=-1"; "cell=1"; "cell=a:b";
      "leak=1:1-4:4" (* not adjacent *); "frobnicate=1" ]

(* ---------- targeted repairs, one per fault kind ---------- *)

(* A deterministic fault aimed at the baseline's own structure: the first
   multi-valve cluster and a non-valve cell on one of its channels. *)
let first_multi (sol : Pacor.Solution.t) =
  match
    List.find_opt
      (fun (c : Pacor.Solution.routed_cluster) ->
         Cluster.size c.routed.Pacor.Routed.cluster >= 2)
      sol.Pacor.Solution.clusters
  with
  | Some c -> c
  | None -> Alcotest.fail "baseline has no multi-valve cluster"

let channel_cell (c : Pacor.Solution.routed_cluster) =
  let valve_pts = Cluster.positions c.routed.Pacor.Routed.cluster in
  match
    List.find_opt
      (fun p -> not (List.exists (Point.equal p) valve_pts))
      (List.concat_map Pacor_grid.Path.points c.routed.Pacor.Routed.paths)
  with
  | Some p -> p
  | None -> Alcotest.fail "cluster has no non-valve channel cell"

let check_repair ?(expect_missing_valves = []) (sol : Pacor.Solution.t) faults =
  match Repair.run ~faults sol with
  | Error e -> Alcotest.failf "repair errored: %s" e
  | Ok rep ->
    (match Pacor.Solution.validate rep.Repair.solution with
     | Ok () -> ()
     | Error es -> Alcotest.failf "repaired solution invalid: %s" (List.hd es));
    (* Untouched clusters are reused byte-identically. *)
    let dirty = rep.Repair.dirty in
    List.iter
      (fun (c : Pacor.Solution.routed_cluster) ->
         let id = cluster_id c in
         if not (List.mem id dirty) then
           match find_cluster rep.Repair.solution id with
           | None -> Alcotest.failf "untouched cluster %d vanished" id
           | Some c' ->
             Alcotest.(check bool)
               (Printf.sprintf "cluster %d paths identical" id)
               true
               (c.routed.Pacor.Routed.paths = c'.routed.Pacor.Routed.paths
                && c.escape == c'.escape))
      sol.Pacor.Solution.clusters;
    (* Dead valves are gone from the repaired instance. *)
    List.iter
      (fun id ->
         Alcotest.(check bool) (Printf.sprintf "valve %d retired" id) false
           (List.exists
              (fun (v : Valve.t) -> v.id = id)
              rep.Repair.solution.Pacor.Solution.problem.Pacor.Problem.valves))
      expect_missing_valves;
    rep

let test_repair_stuck_valve () =
  let sol = Lazy.force baseline in
  let c = first_multi sol in
  let victim = List.hd (Cluster.valve_ids c.routed.Pacor.Routed.cluster) in
  let rep =
    check_repair ~expect_missing_valves:[ victim ] sol
      [ Fault.Stuck_valve { valve = victim; stuck_open = false } ]
  in
  Alcotest.(check (list int)) "dirties exactly the owner" [ cluster_id c ]
    rep.Repair.dirty;
  Alcotest.(check int) "nothing quarantined" 0
    (List.length rep.Repair.quarantined)

let test_repair_blocked_cell () =
  let sol = Lazy.force baseline in
  let c = first_multi sol in
  let cell = channel_cell c in
  let rep = check_repair sol [ Fault.Blocked_cell cell ] in
  Alcotest.(check bool) "owner is dirty" true
    (List.mem (cluster_id c) rep.Repair.dirty);
  (* The faulted cell is an obstacle of the repaired instance, so no
     channel can cross it any more. *)
  List.iter
    (fun rc ->
       Alcotest.(check bool) "cell avoided" false
         (List.exists (Point.equal cell) (cluster_cells rc)))
    rep.Repair.solution.Pacor.Solution.clusters

let test_repair_leaky_segment () =
  let sol = Lazy.force baseline in
  let c = first_multi sol in
  let path = List.hd c.routed.Pacor.Routed.paths in
  match Pacor_grid.Path.points path with
  | a :: b :: _ ->
    let rep = check_repair sol [ Fault.Leaky_segment { a; b } ] in
    (* Both endpoints are retired, even the valve-adjacent one. *)
    let cells = List.concat_map cluster_cells rep.Repair.solution.Pacor.Solution.clusters in
    List.iter
      (fun p ->
         if not (List.exists (Point.equal p)
                   (List.map (fun (v : Valve.t) -> v.position)
                      rep.Repair.solution.Pacor.Solution.problem.Pacor.Problem.valves))
         then
           Alcotest.(check bool) "leak endpoint avoided" false
             (List.exists (Point.equal p) cells))
      [ a; b ]
  | _ -> Alcotest.fail "first channel path is trivial"

(* ---------- quarantine: a sealed valve is retired, never raised ---------- *)

let test_unrepairable_quarantines () =
  (* Two singleton valves; the fault walls one in completely. Repair must
     quarantine it and return a valid solution over the survivor. *)
  let grid = Pacor_grid.Routing_grid.create ~width:11 ~height:11 () in
  let seq = [| Pacor_valve.Activation.Open |] in
  let v0 = Valve.make ~id:0 ~position:(Point.make 5 5) ~sequence:seq in
  let v1 = Valve.make ~id:1 ~position:(Point.make 2 8) ~sequence:seq in
  let pins = [ Point.make 0 5; Point.make 10 5; Point.make 5 0; Point.make 0 8 ] in
  let problem =
    Pacor.Problem.create_exn ~grid ~valves:[ v0; v1 ] ~lm_clusters:[] ~pins ()
  in
  match Pacor.Engine.run problem with
  | Error e -> Alcotest.failf "seal baseline: %s" e.message
  | Ok sol ->
    let wall =
      [ Fault.Blocked_cell (Point.make 4 5); Fault.Blocked_cell (Point.make 6 5);
        Fault.Blocked_cell (Point.make 5 4); Fault.Blocked_cell (Point.make 5 6) ]
    in
    (match Repair.run ~faults:wall sol with
     | Error e -> Alcotest.failf "sealed repair errored instead of quarantining: %s" e
     | Ok rep ->
       Alcotest.(check (list int)) "sealed valve quarantined" [ 0 ]
         rep.Repair.quarantined;
       Alcotest.(check bool) "an Unrepairable report exists" true
         (List.exists
            (fun (r : Repair.report) ->
               match r.outcome with
               | Repair.Unrepairable _ -> true
               | Repair.Repaired | Repair.Degraded _ -> false)
            rep.Repair.reports);
       (match Pacor.Solution.validate rep.Repair.solution with
        | Ok () -> ()
        | Error es ->
          Alcotest.failf "post-quarantine solution invalid: %s" (List.hd es));
       Alcotest.(check int) "survivor still routed" 1
         (List.length rep.Repair.solution.Pacor.Solution.problem.Pacor.Problem.valves))

(* ---------- starved repair degrades, never hangs ---------- *)

let test_starved_repair_returns () =
  let sol = Lazy.force baseline in
  let faults = Fault.inject ~rng:(Rng.create ~seed:9L) ~rate:0.2 sol in
  let limits = Budget.limits ~max_expansions:1 () in
  let t0 = Unix.gettimeofday () in
  match Repair.run ~limits ~faults sol with
  | Error e -> Alcotest.failf "starved repair errored: %s" e
  | Ok rep ->
    Alcotest.(check bool) "prompt" true (Unix.gettimeofday () -. t0 < 10.0);
    (* Whatever it managed must still validate; starvation shows up as
       degradation/quarantine, not as a broken solution. *)
    (match Pacor.Solution.validate rep.Repair.solution with
     | Ok () -> ()
     | Error es -> Alcotest.failf "starved result invalid: %s" (List.hd es))

(* ---------- structural impossibility is an Error ---------- *)

let test_total_loss_is_error () =
  let sol = Lazy.force baseline in
  let all_stuck =
    List.map
      (fun (v : Valve.t) -> Fault.Stuck_valve { valve = v.id; stuck_open = true })
      sol.Pacor.Solution.problem.Pacor.Problem.valves
  in
  Alcotest.(check bool) "no surviving valve is an Error" true
    (Result.is_error (Repair.run ~faults:all_stuck sol))

(* ---------- the ISSUE property ---------- *)

let prop_repair_sound =
  QCheck.Test.make ~name:"repair validates, reuses untouched paths, avoids faults"
    ~count:30
    QCheck.(pair (int_range 1 10_000) (int_range 1 4))
    (fun (seed, k) ->
       let sol : Pacor.Solution.t = Lazy.force baseline in
       let rng = Rng.create ~seed:(Int64.of_int seed) in
       let valve_count =
         List.length sol.Pacor.Solution.problem.Pacor.Problem.valves
       in
       let rate = float_of_int k /. float_of_int valve_count in
       let faults = Fault.inject ~rng ~rate sol in
       match Repair.run ~faults sol with
       | Error _ ->
         (* Structural impossibility can only come from losing every valve,
            impossible at these rates on the baseline. *)
         QCheck.Test.fail_reportf "repair errored at seed %d" seed
       | Ok rep ->
         (* 1: the repaired solution passes the independent validator. *)
         (match Pacor.Solution.validate rep.Repair.solution with
          | Ok () -> ()
          | Error es ->
            QCheck.Test.fail_reportf "seed %d: invalid repair: %s" seed
              (List.hd es));
         (* 2: untouched clusters are byte-identical. *)
         List.iter
           (fun (c : Pacor.Solution.routed_cluster) ->
              let id = cluster_id c in
              if not (List.mem id rep.Repair.dirty) then
                match find_cluster rep.Repair.solution id with
                | Some c' when
                    c.routed.Pacor.Routed.paths = c'.routed.Pacor.Routed.paths
                    && c.escape == c'.escape -> ()
                | Some _ ->
                  QCheck.Test.fail_reportf "seed %d: untouched cluster %d changed"
                    seed id
                | None ->
                  QCheck.Test.fail_reportf "seed %d: untouched cluster %d vanished"
                    seed id)
           sol.Pacor.Solution.clusters;
         (* 3: never Repaired while a channel still crosses a faulted cell. *)
         let blocked = Fault.blocked_cells faults in
         let crossed p =
           List.exists
             (fun rc -> List.exists (Point.equal p) (cluster_cells rc))
             rep.Repair.solution.Pacor.Solution.clusters
         in
         List.iter
           (fun (r : Repair.report) ->
              match r.outcome with
              | Repair.Repaired ->
                let cells = Fault.blocked_cells [ r.fault ] in
                List.iter
                  (fun p ->
                     if crossed p then
                       QCheck.Test.fail_reportf
                         "seed %d: fault reported Repaired but cell (%d,%d) \
                          still carries a channel"
                         seed p.Point.x p.Point.y)
                  cells
              | Repair.Degraded _ | Repair.Unrepairable _ -> ())
           rep.Repair.reports;
         ignore blocked;
         true)

(* ---------- Repaired solutions, pinned ---------- *)

(* BENCH_fault.json records outcome counts and pops; these pin what the
   repairs route: the SVG digest of the repaired solution (every channel
   and escape path, no runtime) and the outcome counts. The fpva-8x8
   faults come from the fault sweep's per-case seed; Chip1's are
   [repair -d Chip1 --faults rate=0.1,seed=1]. *)
let pin_repair label (sol : Pacor.Solution.t) faults ~counts ~digest =
  match Repair.run ~faults sol with
  | Error e -> Alcotest.failf "%s: repair failed: %s" label e
  | Ok rep ->
    let count p = List.length (List.filter (fun (r : Repair.report) -> p r.outcome) rep.reports) in
    Alcotest.(check (list int)) (label ^ ": repaired, degraded, unrepairable") counts
      [ count (( = ) Repair.Repaired);
        count (function Repair.Degraded _ -> true | _ -> false);
        count (function Repair.Unrepairable _ -> true | _ -> false) ];
    Alcotest.(check bool) (label ^ ": validates") true
      (Result.is_ok (Pacor.Solution.validate rep.solution));
    Alcotest.(check string) (label ^ ": svg digest") digest
      (Digest.to_hex (Digest.string (Pacor.Svg.solution rep.solution)))

let route_exn problem =
  match Pacor.Engine.run problem with
  | Ok sol -> sol
  | Error e -> Alcotest.failf "route failed at %s: %s" e.stage e.message

let test_pin_fpva8_repairs () =
  let spec =
    List.find (fun (s : Pacor_designs.Fpva.spec) -> s.name = "fpva-8x8")
      (Pacor_designs.Fpva.family ())
  in
  let sol = route_exn (Pacor_designs.Fpva.generate_exn spec) in
  List.iter
    (fun (rate, counts, digest) ->
       let seed = Int64.add spec.seed (Int64.of_int (1 + int_of_float (rate *. 1000.))) in
       let faults = Fault.inject ~rng:(Rng.create ~seed) ~rate sol in
       pin_repair (Printf.sprintf "fpva-8x8 r=%.2f" rate) sol faults ~counts ~digest)
    [ (0.05, [ 1; 2; 0 ], "2eac311ecf862c61e528cc42c1eaa5e8"); (0.10, [ 5; 1; 0 ], "6a12070348d6f5df19bc1a58caba4956") ]

let test_pin_chip1_repair () =
  let sol = route_exn (Pacor_designs.Table1.load_exn "Chip1") in
  match Fault.parse_spec "rate=0.1,seed=1" with
  | Error e -> Alcotest.failf "spec: %s" e
  | Ok spec ->
    pin_repair "Chip1 rate=0.1,seed=1" sol (Fault.realise spec sol) ~counts:[ 18; 0; 0 ]
      ~digest:"e8f51db60ac066d5348f9a56bb238451"

let () =
  Alcotest.run "fault"
    [ ( "fpva",
        [ Alcotest.test_case "family generates and routes" `Quick
            test_fpva_family_routes;
          Alcotest.test_case "deterministic" `Quick test_fpva_deterministic ] );
      ( "inject",
        [ Alcotest.test_case "deterministic" `Quick test_inject_deterministic;
          Alcotest.test_case "sites distinct and legal" `Quick
            test_inject_sites_distinct_and_on_chip;
          Alcotest.test_case "zero rate" `Quick test_inject_zero_rate;
          Alcotest.test_case "spec parsing" `Quick test_parse_spec ] );
      ( "repair",
        [ Alcotest.test_case "stuck valve" `Quick test_repair_stuck_valve;
          Alcotest.test_case "blocked cell" `Quick test_repair_blocked_cell;
          Alcotest.test_case "leaky segment" `Quick test_repair_leaky_segment;
          Alcotest.test_case "sealed valve quarantined" `Quick
            test_unrepairable_quarantines;
          Alcotest.test_case "starved repair returns" `Quick
            test_starved_repair_returns;
          Alcotest.test_case "total loss is an error" `Quick
            test_total_loss_is_error;
          Alcotest.test_case "fpva-8x8 sweep repairs pinned" `Quick test_pin_fpva8_repairs;
          Alcotest.test_case "Chip1 rate=0.1,seed=1 repair pinned" `Quick
            test_pin_chip1_repair ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_repair_sound ] ) ]
