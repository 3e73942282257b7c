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

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec scan i = i + nn <= nh && (String.sub hay i nn = needle || scan (i + 1)) in
  scan 0

let id_of (c : Pacor.Solution.routed_cluster) = c.routed.Pacor.Routed.cluster.Cluster.id

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

(* ---------- The rip-up ladder's declustering rung ---------- *)

(* A 3x3 room walled by obstacles on three sides and sealed on the fourth
   by a length-matched pair's channel (valves at (2,6) and (6,6)). Inside
   sits an ordinary pair A = (3,4), B = (5,4), compatible with each other
   but not with the sealing pair, so clustering makes it one multi-valve
   ordinary cluster whose channel has no way out. With [gap] the bottom
   wall has a hole at (4,2) over a pin at (4,0). *)
let sealed_room ~gap =
  let seq s = Result.get_ok (Activation.sequence_of_string s) in
  let valve id x y s = Valve.make ~id ~position:(Point.make x y) ~sequence:(seq s) in
  let bottom =
    if gap then [ Rect.make ~x0:2 ~y0:2 ~x1:3 ~y1:2; Rect.make ~x0:5 ~y0:2 ~x1:6 ~y1:2 ]
    else [ Rect.make ~x0:2 ~y0:2 ~x1:6 ~y1:2 ]
  in
  let grid =
    Routing_grid.create ~width:9 ~height:9
      ~obstacles:
        (Rect.make ~x0:2 ~y0:3 ~x1:2 ~y1:5 :: Rect.make ~x0:6 ~y0:3 ~x1:6 ~y1:5 :: bottom)
      ()
  in
  let l1 = valve 0 2 6 "10" and l2 = valve 1 6 6 "10" in
  let a = valve 2 3 4 "01" and b = valve 3 5 4 "01" in
  let pins =
    (if gap then [ Point.make 4 0 ] else [])
    @ [ Point.make 1 8; Point.make 3 8; Point.make 5 8; Point.make 7 8 ]
  in
  Pacor.Problem.create_exn ~grid ~valves:[ l1; l2; a; b ]
    ~lm_clusters:[ Cluster.make_exn ~id:0 ~length_matched:true [ l1; l2 ] ]
    ~pins ()

let room_valves = [ 2; 3 ]

(* Every valve of the room pair is alone in its cluster (or, for repair,
   quarantined out of the instance). *)
let room_split label (sol : Pacor.Solution.t) =
  List.iter
    (fun (c : Pacor.Solution.routed_cluster) ->
       let ids = Cluster.valve_ids c.routed.Pacor.Routed.cluster in
       if List.exists (fun v -> List.mem v room_valves) ids then
         Alcotest.(check (list int)) (label ^ ": room valve in a singleton") [ List.hd ids ] ids)
    sol.clusters

(* The engine's ladder: the room pair fails escape and is declustered; the
   singletons, still walled in, then let the jailer rung reroute the
   sealing pair around a lane from each valve to a pin. *)
let test_decluster_engine () =
  let sol = route (sealed_room ~gap:false) in
  room_split "engine" sol;
  both_accept "engine sealed room" sol

(* Repair's ladder: route with the gap open (the pair escapes through it
   as one cluster), then close the gap. Repair rips the pair, re-routes it,
   fails its escape and declusters it; with no jailer rung the walled-in
   singletons are quarantined, and the sealing pair is reused. Splitting
   alone can never reach a pin the whole cluster could not (its cells were
   all escape starts), so without the rung the same valves would be
   quarantined: this half pins repair's ladder end to end, the engine half
   pins the rung. *)
let test_decluster_repair () =
  let sol = route (sealed_room ~gap:true) in
  let room =
    List.find
      (fun (c : Pacor.Solution.routed_cluster) ->
         Cluster.valve_ids c.routed.Pacor.Routed.cluster = room_valves)
      sol.clusters
  in
  let hole = Point.make 4 2 in
  Alcotest.(check bool) "the pair escapes through the gap" true
    (Point.Set.mem hole (Pacor_fault.Repair.footprint room));
  match Pacor.Problem.add_obstacle sol.problem hole with
  | Error e -> Alcotest.failf "add_obstacle: %s" e
  | Ok problem ->
    let is_dirty c = Point.Set.mem hole (Pacor_fault.Repair.footprint c) in
    (match Pacor_fault.Repair.reroute ~problem ~is_dirty sol with
     | Error e -> Alcotest.failf "reroute failed: %s" e
     | Ok r ->
       Alcotest.(check (list int)) "only the room pair is ripped"
         [ id_of room ] r.Pacor_fault.Repair.dirty;
       Alcotest.(check (list int)) "both room valves quarantined" room_valves
         r.Pacor_fault.Repair.quarantined;
       room_split "repair" r.Pacor_fault.Repair.solution;
       both_accept "repair sealed room" r.Pacor_fault.Repair.solution)

(* ---------- Repair through the shared ladder, fuzzed ---------- *)

(* Two problem families: the synthetic generator (length-matched clusters
   and singletons), and a small obstacle-dense chip whose valves draw from
   a few mutually compatible activation sequences, so clustering forms
   ordinary multi-valve clusters and scarce pins make the ladder's rungs
   fire. *)
let gen_synthetic =
  QCheck.Gen.(
    let* seed = int_range 1 10_000 in
    let* pairs = int_range 0 2 and* triples = int_range 0 1 and* singles = int_range 1 3 in
    return
      (Pacor_designs.Synthetic.generate
         { Pacor_designs.Synthetic.name = "fuzz"; width = 22; height = 22; obstacle_cells = 30;
           lm_cluster_sizes = List.init pairs (fun _ -> 2) @ List.init triples (fun _ -> 3);
           singleton_valves = singles; pin_count = 14; seed = Int64.of_int seed; delta = 1 }))

let gen_congested =
  QCheck.Gen.(
    let size = 10 in
    let inner = int_range 1 (size - 2) in
    let* walls =
      list_repeat 9
        (let* x = inner and* y = inner and* len = int_range 0 3 and* vertical = bool in
         return
           (if vertical then Rect.make ~x0:x ~y0:y ~x1:x ~y1:(min (size - 2) (y + len))
            else Rect.make ~x0:x ~y0:y ~x1:(min (size - 2) (x + len)) ~y1:y))
    in
    let* cells = list_repeat 7 (pair inner inner) in
    let* seqs = list_repeat 7 (oneofl [ "01"; "01"; "10"; "0X"; "X1"; "11"; "00" ]) in
    let ring =
      List.init size (fun i -> [ Point.make i 0; Point.make i (size - 1) ])
      @ List.init (size - 2) (fun i -> [ Point.make 0 (i + 1); Point.make (size - 1) (i + 1) ])
      |> List.concat
    in
    (* About one boundary cell in four is a candidate pin. *)
    let* picks = list_repeat (List.length ring) (int_bound 3) in
    let grid = Routing_grid.create ~width:size ~height:size ~obstacles:walls () in
    let valves =
      List.sort_uniq (fun (a, _) (b, _) -> compare a b) (List.combine cells seqs)
      |> List.filter (fun ((x, y), _) -> Routing_grid.free grid (Point.make x y))
      |> List.mapi (fun id ((x, y), s) ->
        Valve.make ~id ~position:(Point.make x y)
          ~sequence:(Result.get_ok (Activation.sequence_of_string s)))
    in
    let pins =
      List.combine ring picks
      |> List.filter_map (fun (p, k) -> if k = 0 && Routing_grid.free grid p then Some p else None)
    in
    return (Pacor.Problem.create ~grid ~valves ~pins ()))

let prop_repair_fuzz =
  QCheck.Test.make ~name:"repair of every and of a random dirty set passes both judges"
    ~count:120
    (QCheck.make
       ~print:(fun (problem, seed) ->
         Printf.sprintf "dirty-set seed %d\n%s" seed
           (match problem with Ok p -> Pacor.Problem_io.to_string p | Error e -> e))
       QCheck.Gen.(pair (oneof [ gen_synthetic; gen_congested ]) int))
    (fun (problem, subset_seed) ->
       match problem with
       | Error _ -> QCheck.assume_fail ()
       | Ok problem ->
         let sol = route problem in
         (* The engine's own result: both judges agree on it. *)
         if Result.is_ok (Pacor.Solution.validate sol) then both_accept "engine" sol
         else if Result.is_ok (Naive_check.check sol) then
           QCheck.Test.fail_report "naive accepts what validate rejects";
         let rng = Random.State.make [| subset_seed |] in
         let picked =
           List.filter_map
             (fun (c : Pacor.Solution.routed_cluster) ->
                (* A pinless cluster is always ripped: reused, it would
                   leave its valves unrouted. *)
                if c.escape = None || Random.State.bool rng then Some (id_of c) else None)
             sol.clusters
         in
         List.iter
           (fun (label, is_dirty) ->
              match Pacor_fault.Repair.reroute ~problem ~is_dirty sol with
              | Error e when contains e "no valves survive" ->
                () (* every valve quarantined: the one structural error *)
              | Error e -> QCheck.Test.fail_reportf "%s: reroute failed: %s" label e
              | Ok r ->
                both_accept label r.Pacor_fault.Repair.solution;
                List.iter
                  (fun c ->
                     if not (is_dirty c || List.memq c r.Pacor_fault.Repair.solution.clusters)
                     then QCheck.Test.fail_reportf "%s: cluster %d not reused" label (id_of c))
                  sol.clusters)
           [ ("all dirty", fun _ -> true);
             ("random subset", fun c -> List.mem (id_of c) picked) ];
         true)

(* ---------- Planted mutants ---------- *)

let rejects label (sol : Pacor.Solution.t) ~mentions =
  match Naive_check.check sol with
  | Ok () -> Alcotest.failf "%s: mutant accepted" label
  | Error es ->
    if not (List.exists (fun e -> contains e mentions) es) then
      Alcotest.failf "%s: no error mentions %S: %s" label mentions (String.concat "; " es)

let replace_cluster (sol : Pacor.Solution.t) id f =
  { sol with
    clusters =
      List.map
        (fun (c : Pacor.Solution.routed_cluster) ->
           if c.routed.Pacor.Routed.cluster.Cluster.id = id then f c else c)
        sol.clusters }

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
          Alcotest.test_case "engine declusters a walled-in pair" `Quick
            test_decluster_engine;
          Alcotest.test_case "repair declusters a walled-in pair" `Quick
            test_decluster_repair;
          Alcotest.test_case "rejects a shifted path cell" `Quick test_mutant_shifted_cell;
          Alcotest.test_case "rejects a flipped matched flag" `Quick
            test_mutant_flipped_matched;
          Alcotest.test_case "rejects a duplicated pin" `Quick test_mutant_duplicated_pin ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_repair_fuzz ]) ]
