open Pacor_geom
open Pacor_grid
open Pacor_dme
open Pacor_select

let grid = Routing_grid.create ~width:30 ~height:30 ()

let candidates_of sinks =
  Candidate.enumerate ~grid ~usable:(fun _ -> true)
    (List.map (fun (x, y) -> Point.make x y) sinks)

(* A hand-built candidate with chosen edges, for cost tests. *)
let fake_candidate edges mismatch =
  let edges =
    List.map
      (fun ((x1, y1), (x2, y2)) ->
         { Candidate.parent_pos = Point.make x1 y1; child_pos = Point.make x2 y2 })
      edges
  in
  {
    Candidate.root = Point.make 0 0;
    nodes = [];
    edges;
    sinks = [| Point.make 0 0 |];
    full_path_lengths = [| 0 |];
    mismatch;
    total_estimate = 0;
  }

(* ---------- Cost functions ---------- *)

let test_overlap_cost_disjoint () =
  let a = fake_candidate [ ((0, 0), (5, 0)) ] 0 in
  let b = fake_candidate [ ((0, 10), (5, 10)) ] 0 in
  Alcotest.(check (float 1e-9)) "no overlap" 0.0 (Tree_select.overlap_cost a b)

let test_overlap_cost_identical () =
  let a = fake_candidate [ ((0, 0), (5, 0)) ] 0 in
  Alcotest.(check (float 1e-9)) "full overlap = 1" 1.0 (Tree_select.overlap_cost a a)

let test_overlap_cost_partial () =
  (* Edge boxes [0..5]x[0..0] (6 cells) and [3..8]x[0..0] (6 cells) share 3
     cells: ratio 0.5. *)
  let a = fake_candidate [ ((0, 0), (5, 0)) ] 0 in
  let b = fake_candidate [ ((3, 0), (8, 0)) ] 0 in
  Alcotest.(check (float 1e-9)) "half overlap" 0.5 (Tree_select.overlap_cost a b)

let test_overlap_symmetric () =
  let a = fake_candidate [ ((0, 0), (4, 3)); ((4, 3), (7, 1)) ] 0 in
  let b = fake_candidate [ ((2, 1), (6, 2)) ] 0 in
  Alcotest.(check (float 1e-9)) "symmetric" (Tree_select.overlap_cost a b)
    (Tree_select.overlap_cost b a)

let test_mismatch_cost_normalised () =
  let c0 = fake_candidate [] 0 and c2 = fake_candidate [] 2 and c4 = fake_candidate [] 4 in
  let per_cluster = [ [ c0; c4 ]; [ c2 ] ] in
  Alcotest.(check (float 1e-9)) "zero mismatch" 0.0 (Tree_select.mismatch_cost per_cluster c0);
  Alcotest.(check (float 1e-9)) "max mismatch" 1.0 (Tree_select.mismatch_cost per_cluster c4);
  Alcotest.(check (float 1e-9)) "half" 0.5 (Tree_select.mismatch_cost per_cluster c2)

(* ---------- Selection ---------- *)

let test_select_one_per_cluster () =
  let per_cluster = [ candidates_of [ (2, 2); (2, 8) ]; candidates_of [ (20, 20); (26, 20) ] ] in
  match Tree_select.select per_cluster with
  | Error e -> Alcotest.failf "select failed: %s" e
  | Ok sel ->
    Alcotest.(check int) "one per cluster" 2 (List.length sel.chosen);
    Alcotest.(check bool) "objective non-positive" true (sel.objective <= 1e-9)

let test_select_avoids_overlap () =
  (* Cluster A has two candidates: one overlapping cluster B's only
     candidate, one clean. The selection must pick the clean one. *)
  let overlapping = fake_candidate [ ((0, 0), (10, 0)) ] 0 in
  let clean = fake_candidate [ ((0, 5), (10, 5)) ] 0 in
  let b_only = fake_candidate [ ((4, 0), (8, 0)) ] 0 in
  (match Tree_select.select [ [ overlapping; clean ]; [ b_only ] ] with
   | Error e -> Alcotest.failf "select failed: %s" e
   | Ok sel ->
     (match sel.chosen with
      | [ a; _ ] ->
        Alcotest.(check bool) "clean candidate picked" true (a == clean)
      | _ -> Alcotest.fail "expected two choices"))

let test_select_trades_mismatch_for_overlap () =
  (* lambda = 0.1: overlap dominates mismatch, so a slightly mismatched
     but non-overlapping candidate wins. *)
  let matched_overlapping = fake_candidate [ ((0, 0), (10, 0)) ] 0 in
  let mismatched_clean = fake_candidate [ ((0, 5), (10, 5)) ] 3 in
  let b_only = fake_candidate [ ((2, 0), (9, 0)) ] 3 in
  match Tree_select.select [ [ matched_overlapping; mismatched_clean ]; [ b_only ] ] with
  | Error e -> Alcotest.failf "select failed: %s" e
  | Ok sel ->
    (match sel.chosen with
     | [ a; _ ] -> Alcotest.(check bool) "mismatched clean wins" true (a == mismatched_clean)
     | _ -> Alcotest.fail "expected two choices")

let test_select_empty_cluster_error () =
  Alcotest.(check bool) "error on empty candidate list" true
    (Result.is_error (Tree_select.select [ []; [ fake_candidate [] 0 ] ]))

let test_select_no_clusters () =
  match Tree_select.select [] with
  | Ok sel -> Alcotest.(check int) "empty selection" 0 (List.length sel.chosen)
  | Error e -> Alcotest.failf "unexpected error: %s" e

(* Brute-force optimal selection for small instances. *)
let brute_force ~lambda per_cluster =
  let rec all_choices = function
    | [] -> [ [] ]
    | cands :: rest ->
      List.concat_map (fun c -> List.map (fun tl -> c :: tl) (all_choices rest)) cands
  in
  List.fold_left
    (fun (best, bw) choice ->
       let w = Tree_select.selection_weight ~lambda per_cluster choice in
       if w > bw then (choice, w) else (best, bw))
    ([], neg_infinity)
    (all_choices per_cluster)

let random_instance seed =
  let rng = ref seed in
  let next () =
    rng := (!rng * 1103515245) + 12345;
    abs !rng
  in
  List.init 3 (fun _ ->
    List.init
      (1 + (next () mod 3))
      (fun _ ->
         let x1 = next () mod 15 and y1 = next () mod 15 in
         let x2 = next () mod 15 and y2 = next () mod 15 in
         fake_candidate [ ((x1, y1), (x2, y2)) ] (next () mod 5)))

(* The two optimal solvers as (chosen, objective): [Tree_select.select]
   and the literal MWCP clique formulation (test/mwcp_clique.ml), whose
   objective is the naive [selection_weight] fold. *)
let exact_solvers =
  [ ( "exact",
      fun per_cluster ->
        match Tree_select.select per_cluster with
        | Ok sel -> (sel.chosen, sel.objective)
        | Error e -> Alcotest.failf "select failed: %s" e );
    ( "mwcp clique",
      fun per_cluster ->
        let chosen = Mwcp_clique.select ~lambda:0.1 per_cluster in
        (chosen, Tree_select.selection_weight ~lambda:0.1 per_cluster chosen) ) ]

let test_mwcp_clique_matches_exact () =
  (* The paper's literal MWCP formulation and the direct branch-and-bound
     must agree on the optimum. *)
  List.iter
    (fun seed ->
       let per_cluster = random_instance seed in
       let objective (_, solve) = snd (solve per_cluster) in
       match exact_solvers with
       | [ exact; clique ] ->
         Alcotest.(check (float 1e-9)) (Printf.sprintf "seed %d" seed) (objective exact)
           (objective clique)
       | _ -> assert false)
    [ 3; 17; 99; 123; 4242; 31337 ]

let test_exact_matches_brute_force () =
  List.iter
    (fun seed ->
       let per_cluster = random_instance seed in
       let _, brute_w = brute_force ~lambda:0.1 per_cluster in
       match
         Tree_select.select
           ~config:{ Tree_select.lambda = 0.1; solver = Tree_select.Exact }
           per_cluster
       with
       | Error e -> Alcotest.failf "select failed: %s" e
       | Ok sel -> Alcotest.(check (float 1e-9)) "optimal" brute_w sel.objective)
    [ 3; 17; 99; 123; 4242 ]

let test_mwcp_clique_multi_edge_overlap () =
  (* Three copies of one edge per tree: the pair cost is 9, above the
     per-pair bound of 1 a fixed node bonus M = total^2 + 1 assumed, so
     a lone node used to outweigh the full 2-clique. *)
  let e = ((0, 0), (4, 0)) in
  let a = fake_candidate [ e; e; e ] 0 and b = fake_candidate [ e; e; e ] 0 in
  Alcotest.(check (float 1e-9)) "overlap cost" 9.0 (Tree_select.overlap_cost a b);
  List.iter
    (fun (name, solve) ->
       let chosen, objective = solve [ [ a ]; [ b ] ] in
       Alcotest.(check int) (name ^ ": both clusters covered") 2 (List.length chosen);
       Alcotest.(check (float 1e-9)) (name ^ ": objective") (-8.1) objective)
    exact_solvers

let test_solvers_agree_on_feasibility () =
  let per_cluster = random_instance 7 in
  List.iter
    (fun (name, solve) ->
       Alcotest.(check int) (name ^ ": full selection") 3
         (List.length (fst (solve per_cluster))))
    exact_solvers

(* ---------- Differential oracle ---------- *)

(* The bound-only branch and bound [Tree_select.select] used before its
   forward-checking bound and box kernel, kept here as the reference: its
   weights come from the naive public [overlap_cost]/[mismatch_cost], pair
   weights with the lower global index's edges outer, and its search prunes
   on the max-node-weight suffix bound alone. Returns the chosen global
   indices. *)
let oracle_exact ~lambda per_cluster =
  let cand = Array.of_list (List.concat per_cluster) in
  let total = Array.length cand in
  let cluster_of = Array.make total 0 in
  let clusters =
    let next = ref 0 in
    Array.of_list
      (List.mapi
         (fun ci cands ->
            Array.of_list
              (List.map
                 (fun _ ->
                    let g = !next in
                    incr next;
                    cluster_of.(g) <- ci;
                    g)
                 cands))
         per_cluster)
  in
  let node_w =
    Array.map (fun c -> -.lambda *. Tree_select.mismatch_cost per_cluster c) cand
  in
  let pair_w = Array.make_matrix total total 0.0 in
  for i = 0 to total - 1 do
    for j = i + 1 to total - 1 do
      if cluster_of.(i) <> cluster_of.(j) then begin
        let w = -.(1.0 -. lambda) *. Tree_select.overlap_cost cand.(i) cand.(j) in
        pair_w.(i).(j) <- w;
        pair_w.(j).(i) <- w
      end
    done
  done;
  let n = Array.length clusters in
  let seed = Array.make n (-1) in
  for i = 0 to n - 1 do
    let marginal g =
      let w = ref node_w.(g) in
      for j = 0 to i - 1 do
        w := !w +. pair_w.(g).(seed.(j))
      done;
      !w
    in
    let best = ref clusters.(i).(0) and best_w = ref (marginal clusters.(i).(0)) in
    Array.iter
      (fun g ->
         let w = marginal g in
         if w > !best_w then begin
           best := g;
           best_w := w
         end)
      clusters.(i);
    seed.(i) <- !best
  done;
  let best_suffix =
    Array.map (fun cands -> Array.fold_left (fun a g -> max a node_w.(g)) neg_infinity cands) clusters
  in
  let suffix_bound = Array.make (n + 1) 0.0 in
  for i = n - 1 downto 0 do
    suffix_bound.(i) <- suffix_bound.(i + 1) +. best_suffix.(i)
  done;
  let best = ref (Array.copy seed) and best_w = ref 0.0 in
  for i = 0 to n - 1 do
    best_w := !best_w +. node_w.(seed.(i));
    for j = 0 to i - 1 do
      best_w := !best_w +. pair_w.(seed.(i)).(seed.(j))
    done
  done;
  let chosen = Array.make n (-1) in
  let rec go i acc_w =
    if i = n then begin
      if acc_w > !best_w then begin
        best_w := acc_w;
        best := Array.copy chosen
      end
    end
    else if acc_w +. suffix_bound.(i) > !best_w +. 1e-12 then
      Array.iter
        (fun g ->
           let w = ref node_w.(g) in
           for j = 0 to i - 1 do
             w := !w +. pair_w.(g).(chosen.(j))
           done;
           chosen.(i) <- g;
           go (i + 1) (acc_w +. !w))
        clusters.(i)
  in
  if n > 0 && 0.0 +. suffix_bound.(0) > !best_w +. 1e-12 then
    Array.iter
      (fun g0 ->
         chosen.(0) <- g0;
         go 1 node_w.(g0))
      clusters.(0);
  Array.to_list (Array.map (fun g -> cand.(g)) !best)

(* [select] must return the oracle's choices (the same candidates, not
   just equal ones) with an objective bit-equal to the naive
   [selection_weight] of them. *)
let agrees_with_oracle per_cluster =
  let lambda = Tree_select.default_config.lambda in
  match Tree_select.select per_cluster with
  | Error _ -> false
  | Ok sel ->
    List.length sel.chosen = List.length per_cluster
    && List.for_all2 ( == ) sel.chosen (oracle_exact ~lambda per_cluster)
    && Int64.equal
         (Int64.bits_of_float sel.objective)
         (Int64.bits_of_float (Tree_select.selection_weight ~lambda per_cluster sel.chosen))

(* 4-8 clusters of 1-6 candidates, each of 1-5 edges on a 20x20 box. A
   candidate may be a fresh copy of an earlier one in its cluster, so
   equal-weight ties must break the same way. *)
let gen_oracle_instance =
  let open QCheck.Gen in
  let point = pair (int_bound 19) (int_bound 19) in
  let cand = map2 fake_candidate (list_size (int_range 1 5) (pair point point)) (int_bound 4) in
  let cluster =
    list_size (int_range 1 6) (pair cand (option nat))
    >|= List.fold_left
          (fun acc (c, dup) ->
             match (dup, acc) with
             | Some k, _ :: _ ->
               let src : Candidate.t = List.nth acc (k mod List.length acc) in
               { src with mismatch = src.mismatch } :: acc
             | _ -> c :: acc)
          []
  in
  list_size (int_range 4 8) cluster

let prop_select_matches_oracle =
  QCheck.Test.make ~name:"select = bound-only oracle, objective = naive fold" ~count:200
    (QCheck.make gen_oracle_instance) agrees_with_oracle

let test_chip1_matches_oracle () =
  let p = Pacor_designs.Table1.load_exn "Chip1" in
  let grid = p.Pacor.Problem.grid in
  let valve_cells =
    Point.Set.of_list (List.map (fun (v : Pacor_valve.Valve.t) -> v.position) p.Pacor.Problem.valves)
  in
  let static = Routing_grid.obstacles grid in
  let usable q = Obstacle_map.free static q && not (Point.Set.mem q valve_cells) in
  let per_cluster =
    List.filter (( <> ) [])
      (List.map
         (Pacor.Cluster_route.candidates_for ~config:Pacor.Config.default ~grid ~usable)
         p.Pacor.Problem.lm_clusters)
  in
  Alcotest.(check bool) "Chip1 selection = oracle" true (agrees_with_oracle per_cluster)

(* ---------- QCheck ---------- *)

let arb_instance = QCheck.map random_instance QCheck.small_int

let prop_exact_optimal =
  QCheck.Test.make ~name:"exact solver is optimal" ~count:40 arb_instance
    (fun per_cluster ->
       let _, brute_w = brute_force ~lambda:0.1 per_cluster in
       match
         Tree_select.select
           ~config:{ Tree_select.lambda = 0.1; solver = Tree_select.Exact }
           per_cluster
       with
       | Ok sel -> Float.abs (sel.objective -. brute_w) < 1e-9
       | Error _ -> false)

let prop_selection_weight_nonpositive =
  QCheck.Test.make ~name:"objective always <= 0" ~count:40 arb_instance
    (fun per_cluster ->
       match Tree_select.select per_cluster with
       | Ok sel -> sel.objective <= 1e-9
       | Error _ -> false)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_exact_optimal; prop_selection_weight_nonpositive; prop_select_matches_oracle ]

let () =
  Alcotest.run "select"
    [ ( "costs",
        [ Alcotest.test_case "disjoint overlap" `Quick test_overlap_cost_disjoint;
          Alcotest.test_case "identical overlap" `Quick test_overlap_cost_identical;
          Alcotest.test_case "partial overlap" `Quick test_overlap_cost_partial;
          Alcotest.test_case "symmetric" `Quick test_overlap_symmetric;
          Alcotest.test_case "mismatch normalised" `Quick test_mismatch_cost_normalised ] );
      ( "selection",
        [ Alcotest.test_case "one per cluster" `Quick test_select_one_per_cluster;
          Alcotest.test_case "avoids overlap" `Quick test_select_avoids_overlap;
          Alcotest.test_case "mismatch vs overlap tradeoff" `Quick
            test_select_trades_mismatch_for_overlap;
          Alcotest.test_case "empty cluster error" `Quick test_select_empty_cluster_error;
          Alcotest.test_case "no clusters" `Quick test_select_no_clusters;
          Alcotest.test_case "exact vs brute force" `Quick test_exact_matches_brute_force;
          Alcotest.test_case "MWCP clique = exact" `Quick test_mwcp_clique_matches_exact;
          Alcotest.test_case "MWCP clique on multi-edge overlap" `Quick
            test_mwcp_clique_multi_edge_overlap;
          Alcotest.test_case "all solvers feasible" `Quick test_solvers_agree_on_feasibility;
          Alcotest.test_case "Chip1 = bound-only oracle" `Quick test_chip1_matches_oracle ] );
      ("properties", qcheck_cases) ]
