open Pacor_geom
open Pacor_grid
open Pacor_dme

let pts l = List.map (fun (x, y) -> Point.make x y) l

(* ---------- Topology ---------- *)

let test_topology_sizes () =
  let topo = Topology.balanced_bipartition (pts [ (0, 0); (4, 0); (0, 4); (4, 4) ]) in
  Alcotest.(check int) "size" 4 (Topology.size topo);
  Alcotest.(check bool) "balanced" true (Topology.is_balanced topo);
  Alcotest.(check (list int)) "all leaves present" [ 0; 1; 2; 3 ]
    (List.sort Int.compare (Topology.leaves topo))

let test_topology_pairs_nearby () =
  (* Two tight pairs far apart: BB must not split a pair. *)
  let topo =
    Topology.balanced_bipartition (pts [ (0, 0); (1, 0); (20, 20); (21, 20) ])
  in
  (match topo with
   | Topology.Node (l, r) ->
     let sides =
       [ List.sort Int.compare (Topology.leaves l);
         List.sort Int.compare (Topology.leaves r) ]
     in
     Alcotest.(check bool) "pairs kept together" true
       (List.mem [ 0; 1 ] sides && List.mem [ 2; 3 ] sides)
   | Topology.Leaf _ -> Alcotest.fail "expected a node")

let test_topology_single () =
  let topo = Topology.balanced_bipartition (pts [ (3, 3) ]) in
  Alcotest.(check int) "single leaf" 1 (Topology.size topo)

let test_topology_odd () =
  let topo = Topology.balanced_bipartition (pts [ (0, 0); (2, 0); (4, 0) ]) in
  Alcotest.(check int) "three sinks" 3 (Topology.size topo);
  Alcotest.(check bool) "balanced" true (Topology.is_balanced topo)

let test_topology_large_median_split () =
  let sinks = List.init 20 (fun i -> Point.make (i * 3) ((i * 7) mod 13)) in
  let topo = Topology.balanced_bipartition sinks in
  Alcotest.(check int) "all sinks" 20 (Topology.size topo);
  Alcotest.(check bool) "balanced" true (Topology.is_balanced topo)

let test_topology_empty () =
  Alcotest.check_raises "empty"
    (Invalid_argument "Topology.balanced_bipartition: no sinks") (fun () ->
      ignore (Topology.balanced_bipartition []))

(* ---------- Merge ---------- *)

let build sinks =
  let arr = Array.of_list (pts sinks) in
  let topo = Topology.balanced_bipartition (Array.to_list arr) in
  (arr, Merge.build ~sinks:arr topo)

let test_merge_two_sinks () =
  let _, root = build [ (0, 0); (4, 0) ] in
  (* Midpoints locus: sink distance is half the doubled distance 8. *)
  Alcotest.(check int) "sink distance" 4 root.Merge.sink_dist;
  Alcotest.(check int) "two children" 2 (List.length root.Merge.children)

let test_merge_consistency_small () =
  List.iter
    (fun sinks ->
       let _, root = build sinks in
       Alcotest.(check bool) "distances consistent" true
         (Merge.check_sink_distances root))
    [ [ (0, 0); (4, 0) ];
      [ (0, 0); (3, 0) ] (* odd distance: Lemma 1 territory *);
      [ (2, 2); (2, 10); (12, 3); (13, 11) ] (* the Fig. 3 shape *);
      [ (0, 0); (10, 0); (5, 9) ];
      [ (1, 1); (2, 7); (9, 2); (8, 8); (5, 5) ] ]

let test_merge_regions_count () =
  let _, root = build [ (2, 2); (2, 10); (12, 3); (13, 11) ] in
  (* A 4-leaf binary tree has 3 internal nodes. *)
  Alcotest.(check int) "three merging regions" 3 (List.length (Merge.merging_regions root))

let test_merge_detour_case () =
  (* Clustered pair far from a lone sink: balancing forces a detour edge. *)
  let _, root = build [ (0, 0); (1, 0); (30, 0) ] in
  Alcotest.(check bool) "consistent despite detour" true (Merge.check_sink_distances root);
  Alcotest.(check bool) "sink distance large enough" true (root.Merge.sink_dist >= 29)

let test_merge_bad_leaf () =
  let arr = [| Point.make 0 0 |] in
  Alcotest.check_raises "leaf out of range"
    (Invalid_argument "Merge.build: leaf index out of range") (fun () ->
      ignore (Merge.build ~sinks:arr (Topology.Leaf 5)))

(* ---------- Candidate ---------- *)

let grid20 = Routing_grid.create ~width:20 ~height:20 ()

let test_candidate_balance_fig3 () =
  let sinks = pts [ (2, 2); (2, 10); (12, 3); (13, 11) ] in
  let cands = Candidate.enumerate ~grid:grid20 ~usable:(fun _ -> true) sinks in
  Alcotest.(check bool) "several candidates" true (List.length cands >= 2);
  List.iter
    (fun (c : Candidate.t) ->
       (* DME with integer rounding leaves at most a couple of units of
          mismatch, eliminated later by detouring. *)
       Alcotest.(check bool) "near-balanced" true (c.mismatch <= 4);
       Alcotest.(check int) "four sinks" 4 (Array.length c.sinks);
       (* Full paths: the estimate for each sink must be at least its
          Manhattan distance to the root. *)
       Array.iteri
         (fun i pos ->
            Alcotest.(check bool) "full path >= manhattan to root" true
              (c.full_path_lengths.(i) >= Point.manhattan pos c.root))
         c.sinks)
    cands

let test_candidate_singleton () =
  match Candidate.enumerate ~grid:grid20 ~usable:(fun _ -> true) [ Point.make 5 5 ] with
  | [ c ] ->
    Alcotest.(check int) "no edges" 0 (List.length c.edges);
    Alcotest.(check int) "zero mismatch" 0 c.mismatch
  | _ -> Alcotest.fail "expected exactly one trivial candidate"

let test_candidate_pair () =
  let cands =
    Candidate.enumerate ~grid:grid20 ~usable:(fun _ -> true)
      (pts [ (3, 3); (9, 3) ])
  in
  Alcotest.(check bool) "non-empty" true (cands <> []);
  List.iter
    (fun (c : Candidate.t) ->
       Alcotest.(check bool) "estimate at least distance" true (c.total_estimate >= 6))
    cands

let test_candidate_nodes_structure () =
  let sinks = pts [ (2, 2); (2, 10); (12, 3); (13, 11) ] in
  match Candidate.enumerate ~grid:grid20 ~usable:(fun _ -> true) sinks with
  | [] -> Alcotest.fail "no candidates"
  | c :: _ ->
    let nodes = c.Candidate.nodes in
    (* Exactly one root, id 0, and every other node's parent exists. *)
    let roots = List.filter (fun (n : Candidate.node) -> n.parent = None) nodes in
    Alcotest.(check int) "one root" 1 (List.length roots);
    Alcotest.(check int) "root id" 0 (List.hd roots).Candidate.id;
    List.iter
      (fun (n : Candidate.node) ->
         match n.parent with
         | None -> ()
         | Some pid ->
           Alcotest.(check bool) "parent exists" true
             (List.exists (fun (m : Candidate.node) -> m.id = pid) nodes))
      nodes;
    (* Sinks are exactly the leaves. *)
    let sink_nodes = List.filter (fun (n : Candidate.node) -> n.sink <> None) nodes in
    Alcotest.(check int) "four sink nodes" 4 (List.length sink_nodes)

let test_chain_to_root () =
  let sinks = pts [ (2, 2); (2, 10); (12, 3); (13, 11) ] in
  match Candidate.enumerate ~grid:grid20 ~usable:(fun _ -> true) sinks with
  | [] -> Alcotest.fail "no candidates"
  | c :: _ ->
    for sink = 0 to 3 do
      let chain = Candidate.chain_to_root c ~sink in
      Alcotest.(check bool) "chain non-empty" true (chain <> []);
      (* The last pair's parent is the root (id 0). *)
      let _, last_parent = List.nth chain (List.length chain - 1) in
      Alcotest.(check int) "ends at root" 0 last_parent
    done

let test_candidate_avoids_obstacles () =
  let obstacle = Rect.make ~x0:6 ~y0:5 ~x1:8 ~y1:8 in
  let grid = Routing_grid.create ~width:20 ~height:20 ~obstacles:[ obstacle ] () in
  let usable p = Routing_grid.free grid p in
  let sinks = pts [ (2, 2); (2, 10); (12, 3); (13, 11) ] in
  let cands = Candidate.enumerate ~grid ~usable sinks in
  Alcotest.(check bool) "candidates exist" true (cands <> []);
  List.iter
    (fun (c : Candidate.t) ->
       List.iter
         (fun (n : Candidate.node) ->
            if n.sink = None then
              Alcotest.(check bool) "internal node off obstacle" true
                (not
                   (obstacle.x0 <= n.pos.x && n.pos.x <= obstacle.x1
                    && obstacle.y0 <= n.pos.y && n.pos.y <= obstacle.y1)))
         c.nodes)
    cands

let test_candidate_dedup_and_sort () =
  let sinks = pts [ (2, 2); (2, 10); (12, 3); (13, 11) ] in
  let cands = Candidate.enumerate ~grid:grid20 ~usable:(fun _ -> true) ~max_candidates:4 sinks in
  Alcotest.(check bool) "bounded" true (List.length cands <= 4);
  let rec sorted = function
    | (a : Candidate.t) :: (b : Candidate.t) :: rest ->
      (a.mismatch < b.mismatch
       || (a.mismatch = b.mismatch && a.total_estimate <= b.total_estimate))
      && sorted (b :: rest)
    | _ -> true
  in
  Alcotest.(check bool) "sorted by mismatch then estimate" true (sorted cands)

(* ---------- QCheck ---------- *)

let arb_sinks =
  QCheck.make
    QCheck.Gen.(
      let* n = int_range 2 7 in
      let rec gen_points acc k =
        if k = 0 then return acc
        else
          let* x = int_range 1 18 and* y = int_range 1 18 in
          let p = Point.make x y in
          if List.exists (Point.equal p) acc then gen_points acc k
          else gen_points (p :: acc) (k - 1)
      in
      gen_points [] n)

let prop_topology_partition =
  QCheck.Test.make ~name:"BB topology is a permutation of sinks" ~count:100 arb_sinks
    (fun sinks ->
       let topo = Topology.balanced_bipartition sinks in
       List.sort Int.compare (Topology.leaves topo)
       = List.init (List.length sinks) Fun.id
       && Topology.is_balanced topo)

let prop_merge_consistent =
  QCheck.Test.make ~name:"merge regions consistent" ~count:100 arb_sinks (fun sinks ->
    let arr = Array.of_list sinks in
    let topo = Topology.balanced_bipartition sinks in
    Merge.check_sink_distances (Merge.build ~sinks:arr topo))

let prop_candidates_cover_sinks =
  QCheck.Test.make ~name:"candidates keep sinks at their positions" ~count:60 arb_sinks
    (fun sinks ->
       let grid = Routing_grid.create ~width:20 ~height:20 () in
       let cands = Candidate.enumerate ~grid ~usable:(fun _ -> true) sinks in
       cands <> []
       && List.for_all
            (fun (c : Candidate.t) ->
               List.for_all2
                 (fun s s' -> Point.equal s s')
                 sinks
                 (Array.to_list c.sinks))
            cands)

let prop_candidate_mismatch_bounded =
  (* DME mismatch before detouring is bounded by the rounding slack: one
     unit per merge level. *)
  QCheck.Test.make ~name:"candidate mismatch small" ~count:60 arb_sinks (fun sinks ->
    let grid = Routing_grid.create ~width:20 ~height:20 () in
    let cands = Candidate.enumerate ~grid ~usable:(fun _ -> true) sinks in
    let levels =
      let topo = Topology.balanced_bipartition sinks in
      Topology.depth topo
    in
    List.for_all (fun (c : Candidate.t) -> c.mismatch <= 2 * levels) cands)

(* The pairwise-distance walk and the list-free embedding against the
   list-based oracles they replaced ([Topology_oracle],
   [Candidate_oracle]). Coordinates come from a small box as often as
   from a wide one, so duplicate and collinear sinks, and with them tied
   splits, are common; up to 16 sinks reach the median split. *)
let gen_sink_list ~max_n ~side =
  QCheck.Gen.(
    let* n = int_range 1 max_n and* side = side in
    list_repeat n (map2 Point.make (int_bound (side - 1)) (int_bound (side - 1))))

let print_sinks sinks =
  String.concat " " (List.map (fun (p : Point.t) -> Printf.sprintf "(%d,%d)" p.x p.y) sinks)

let prop_topology_oracle =
  QCheck.Test.make ~name:"BB topology = the list-based oracle" ~count:3000
    (QCheck.make ~print:print_sinks
       (gen_sink_list ~max_n:16 ~side:(QCheck.Gen.oneofl [ 3; 5; 12; 40 ])))
    (fun sinks ->
       Topology.balanced_bipartition sinks = Topology_oracle.balanced_bipartition sinks
       && Topology.alternatives sinks = Topology_oracle.alternatives sinks)

let prop_candidate_oracle =
  QCheck.Test.make ~name:"candidates = the list-based oracle" ~count:400
    (QCheck.make
       ~print:(fun (w, h, density, k, sinks) ->
         Printf.sprintf "%dx%d usable %d/4 max %d: %s" w h density k (print_sinks sinks))
       QCheck.Gen.(
         let* w = int_range 2 40 and* h = int_range 2 40 in
         let* density = int_range 1 4 and* k = int_range 1 8 in
         let* n = int_range 1 9 in
         let+ sinks = list_repeat n (map2 Point.make (int_bound (w - 1)) (int_bound (h - 1))) in
         (w, h, density, k, sinks)))
    (fun (w, h, density, max_candidates, sinks) ->
       let grid = Routing_grid.create ~width:w ~height:h () in
       (* A fixed pseudo-random mask: about [density] cells in four usable. *)
       let usable (p : Point.t) = Hashtbl.hash (p.x, p.y, w, h) land 3 < density in
       Candidate.enumerate ~grid ~usable ~max_candidates sinks
       = Candidate_oracle.enumerate ~grid ~usable ~max_candidates sinks)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_topology_partition; prop_merge_consistent; prop_candidates_cover_sinks;
      prop_candidate_mismatch_bounded; prop_topology_oracle; prop_candidate_oracle ]

let () =
  Alcotest.run "dme"
    [ ( "topology",
        [ Alcotest.test_case "sizes" `Quick test_topology_sizes;
          Alcotest.test_case "pairs kept together" `Quick test_topology_pairs_nearby;
          Alcotest.test_case "single" `Quick test_topology_single;
          Alcotest.test_case "odd count" `Quick test_topology_odd;
          Alcotest.test_case "median split" `Quick test_topology_large_median_split;
          Alcotest.test_case "empty" `Quick test_topology_empty ] );
      ( "merge",
        [ Alcotest.test_case "two sinks" `Quick test_merge_two_sinks;
          Alcotest.test_case "consistency" `Quick test_merge_consistency_small;
          Alcotest.test_case "region count" `Quick test_merge_regions_count;
          Alcotest.test_case "detour case" `Quick test_merge_detour_case;
          Alcotest.test_case "bad leaf" `Quick test_merge_bad_leaf ] );
      ( "candidate",
        [ Alcotest.test_case "fig3 balance" `Quick test_candidate_balance_fig3;
          Alcotest.test_case "singleton" `Quick test_candidate_singleton;
          Alcotest.test_case "pair" `Quick test_candidate_pair;
          Alcotest.test_case "node structure" `Quick test_candidate_nodes_structure;
          Alcotest.test_case "chain to root" `Quick test_chain_to_root;
          Alcotest.test_case "avoids obstacles" `Quick test_candidate_avoids_obstacles;
          Alcotest.test_case "dedup and sort" `Quick test_candidate_dedup_and_sort ] );
      ("properties", qcheck_cases) ]
