(* The naive solution checker (test/naive_check.ml) as a second judge:
   it must accept what the router produces on the named designs, the
   corpus, a fault repair and a serve-style edit — agreeing with
   [Solution.validate] on each — and reject planted mutants. *)

open Pacor_geom
open Pacor_grid
open Pacor_valve

let corpus_dir =
  match Sys.getenv_opt "DUNE_SOURCEROOT" with
  | Some root -> Filename.concat root "corpus"
  | None -> Filename.concat (Sys.getcwd ()) "../../../corpus"

let route problem =
  match Pacor.Engine.run problem with
  | Ok sol -> sol
  | Error e -> Alcotest.failf "engine failed at %s: %s" e.stage e.message

let design name = lazy (route (Pacor_designs.Table1.load_exn name))

let chip2 = design "Chip2"

let both_accept label (sol : Pacor.Solution.t) =
  (match Naive_check.check sol with
   | Ok () -> ()
   | Error es -> Alcotest.failf "%s: naive checker rejects: %s" label (String.concat "; " es));
  match Pacor.Solution.validate sol with
  | Ok () -> ()
  | Error es -> Alcotest.failf "%s: validate rejects: %s" label (String.concat "; " es)

let test_designs () =
  List.iter
    (fun name ->
       let sol = if name = "Chip2" then Lazy.force chip2 else Lazy.force (design name) in
       both_accept name sol)
    [ "Chip1"; "Chip2"; "S1"; "S2"; "S3"; "S4"; "S5" ]

let test_corpus () =
  let files =
    Sys.readdir corpus_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".chip")
    |> List.sort String.compare
  in
  List.iter
    (fun f ->
       match Pacor.Problem_io.load ~path:(Filename.concat corpus_dir f) with
       | Error _ -> () (* malformed fixtures are the parser tests' business *)
       | Ok problem ->
         (match Pacor.Engine.run problem with
          | Ok sol when Pacor.Solution.validate sol = Ok () -> both_accept f sol
          | Ok sol ->
            (* An instance the router cannot finish: the naive judge must
               not accept what validate rejects. *)
            Alcotest.(check bool) (f ^ ": naive rejects too") true
              (Result.is_error (Naive_check.check sol))
          | Error _ -> ()))
    files

let multi_valve (sol : Pacor.Solution.t) =
  match
    List.find_opt
      (fun (c : Pacor.Solution.routed_cluster) -> List.length c.routed.Pacor.Routed.cluster.Cluster.valves >= 2)
      sol.clusters
  with
  | Some c -> c
  | None -> Alcotest.fail "no multi-valve cluster"

(* A channel cell of [c] that is not a valve cell. *)
let channel_cell (c : Pacor.Solution.routed_cluster) =
  let valves = Cluster.positions c.routed.Pacor.Routed.cluster in
  match
    List.find_opt
      (fun p -> not (List.exists (Point.equal p) valves))
      (List.concat_map Path.points c.routed.Pacor.Routed.paths)
  with
  | Some p -> p
  | None -> Alcotest.fail "cluster has no non-valve channel cell"

let test_repair () =
  let sol = Lazy.force chip2 in
  let faults = [ Pacor_fault.Fault.Blocked_cell (channel_cell (multi_valve sol)) ] in
  match Pacor_fault.Repair.run ~faults sol with
  | Error e -> Alcotest.failf "repair failed: %s" e
  | Ok rep ->
    Alcotest.(check bool) "repair re-routed something" true (rep.Pacor_fault.Repair.dirty <> []);
    both_accept "Chip2 repair" rep.Pacor_fault.Repair.solution

(* A serve [add_obstacle] delta, phrased as the daemon phrases it: block a
   channel cell, re-route every cluster whose footprint holds it. *)
let test_serve_delta () =
  let sol = Lazy.force chip2 in
  let pos = channel_cell (multi_valve sol) in
  match Pacor.Problem.add_obstacle sol.problem pos with
  | Error e -> Alcotest.failf "add_obstacle: %s" e
  | Ok problem ->
    let is_dirty c = Point.Set.mem pos (Pacor_fault.Repair.footprint c) in
    (match Pacor_fault.Repair.reroute ~stage:"add_obstacle" ~problem ~is_dirty sol with
     | Error e -> Alcotest.failf "reroute failed: %s" e
     | Ok r -> both_accept "Chip2 add_obstacle delta" r.Pacor_fault.Repair.solution)

(* ---------- Planted mutants ---------- *)

let rejects label (sol : Pacor.Solution.t) ~mentions =
  match Naive_check.check sol with
  | Ok () -> Alcotest.failf "%s: mutant accepted" label
  | Error es ->
    let contains hay needle =
      let nh = String.length hay and nn = String.length needle in
      let rec scan i = i + nn <= nh && (String.sub hay i nn = needle || scan (i + 1)) in
      scan 0
    in
    if not (List.exists (fun e -> contains e mentions) es) then
      Alcotest.failf "%s: no error mentions %S: %s" label mentions (String.concat "; " es)

let replace_cluster (sol : Pacor.Solution.t) id f =
  { sol with
    clusters =
      List.map
        (fun (c : Pacor.Solution.routed_cluster) ->
           if c.routed.Pacor.Routed.cluster.Cluster.id = id then f c else c)
        sol.clusters }

let id_of (c : Pacor.Solution.routed_cluster) = c.routed.Pacor.Routed.cluster.Cluster.id

(* Flip one corner cell of a channel to the opposite corner of its unit
   square: the path stays 4-connected (a [Path.t] cannot be otherwise),
   but it now runs through a cell the cluster never claimed. *)
let test_mutant_shifted_cell () =
  let sol = Lazy.force chip2 in
  let corner pts =
    let a = Array.of_list pts in
    let rec find i =
      if i + 2 >= Array.length a then None
      else begin
        let (p : Point.t) = a.(i) and (q : Point.t) = a.(i + 2) in
        if p.x <> q.x && p.y <> q.y then Some i else find (i + 1)
      end
    in
    Option.map
      (fun i ->
         let p = a.(i) and m = a.(i + 1) and q = a.(i + 2) in
         a.(i + 1) <- Point.make (p.x + q.x - m.x) (p.y + q.y - m.y);
         Path.of_points (Array.to_list a))
      (find 0)
  in
  let target =
    List.find_map
      (fun (c : Pacor.Solution.routed_cluster) ->
         List.find_map
           (fun path -> Option.map (fun shifted -> (c, path, shifted)) (corner (Path.points path)))
           c.routed.Pacor.Routed.paths)
      sol.clusters
  in
  match target with
  | None -> Alcotest.fail "Chip2 has no channel with a corner"
  | Some (c, path, shifted) ->
    let mutant =
      replace_cluster sol (id_of c) (fun c ->
        let routed = c.routed in
        { c with
          routed =
            { routed with
              Pacor.Routed.paths =
                List.map (fun p -> if p == path then shifted else p) routed.Pacor.Routed.paths } })
    in
    rejects "shifted path cell" mutant ~mentions:"claims"

let test_mutant_flipped_matched () =
  let sol = Lazy.force chip2 in
  let c =
    match List.find_opt (fun (c : Pacor.Solution.routed_cluster) -> not c.matched) sol.clusters with
    | Some c -> c
    | None -> Alcotest.fail "Chip2 has no unmatched cluster"
  in
  let mutant = replace_cluster sol (id_of c) (fun c -> { c with matched = true }) in
  rejects "matched flag on an unmatched cluster" mutant ~mentions:"marked matched"

let test_mutant_duplicated_pin () =
  let sol = Lazy.force chip2 in
  match sol.clusters with
  | ({ escape = Some e; _ } : Pacor.Solution.routed_cluster) :: second :: _ ->
    let mutant =
      replace_cluster sol (id_of second) (fun c ->
        match c.escape with
        | Some e' -> { c with escape = Some { e' with Pacor_flow.Escape.pin = e.pin } }
        | None -> c)
    in
    rejects "duplicated pin" mutant ~mentions:"used by clusters"
  | _ -> Alcotest.fail "Chip2 needs two clusters, the first escaped"

let () =
  Alcotest.run "check"
    [ ( "naive checker",
        [ Alcotest.test_case "accepts Chip1, Chip2, S1-S5" `Quick test_designs;
          Alcotest.test_case "agrees with validate on the corpus" `Quick test_corpus;
          Alcotest.test_case "accepts a fault repair" `Quick test_repair;
          Alcotest.test_case "accepts a serve delta" `Quick test_serve_delta;
          Alcotest.test_case "rejects a shifted path cell" `Quick test_mutant_shifted_cell;
          Alcotest.test_case "rejects a flipped matched flag" `Quick
            test_mutant_flipped_matched;
          Alcotest.test_case "rejects a duplicated pin" `Quick test_mutant_duplicated_pin ] ) ]
