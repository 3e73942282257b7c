open Pacor_geom
open Pacor_valve

let seq s =
  match Activation.sequence_of_string s with
  | Ok x -> x
  | Error e -> Alcotest.failf "bad sequence %S: %s" s e

let mk_valve id x y s = Valve.make ~id ~position:(Point.make x y) ~sequence:(seq s)

(* ---------- Activation ---------- *)

(* The meet oracle: the most constrained status satisfying both, [None]
   when they conflict; pointwise over sequences of one length. It is the
   sequence a shared control pin would drive, and the property "meet
   compatible with operands" judges [Activation.compatible] by it. *)
let status_meet (a : Activation.status) (b : Activation.status) =
  match (a, b) with
  | Dont_care, s | s, Dont_care -> Some s
  | Open, Open -> Some Activation.Open
  | Closed, Closed -> Some Activation.Closed
  | Open, Closed | Closed, Open -> None

let meet a b =
  if Array.length a <> Array.length b then None
  else
    let out = Array.map2 status_meet a b in
    if Array.for_all Option.is_some out then Some (Array.map Option.get out) else None

let test_status_compat () =
  let open Activation in
  Alcotest.(check bool) "0~0" true (status_compatible Open Open);
  Alcotest.(check bool) "1~1" true (status_compatible Closed Closed);
  Alcotest.(check bool) "0~1" false (status_compatible Open Closed);
  Alcotest.(check bool) "X~0" true (status_compatible Dont_care Open);
  Alcotest.(check bool) "1~X" true (status_compatible Closed Dont_care);
  Alcotest.(check bool) "X~X" true (status_compatible Dont_care Dont_care)

let test_status_meet () =
  let open Activation in
  Alcotest.(check bool) "meet X 0 = 0" true (status_meet Dont_care Open = Some Open);
  Alcotest.(check bool) "meet 1 X = 1" true (status_meet Closed Dont_care = Some Closed);
  Alcotest.(check bool) "meet 0 1 = None" true (status_meet Open Closed = None)

let test_sequence_parse () =
  Alcotest.(check string) "roundtrip" "01X01"
    (Activation.string_of_sequence (seq "01X01"));
  Alcotest.(check bool) "lowercase x ok" true
    (Result.is_ok (Activation.sequence_of_string "0x1"));
  Alcotest.(check bool) "bad char" true
    (Result.is_error (Activation.sequence_of_string "012"));
  Alcotest.(check bool) "empty" true (Result.is_error (Activation.sequence_of_string ""))

let test_sequence_compat () =
  Alcotest.(check bool) "compatible with X" true (Activation.compatible (seq "0X1") (seq "001"));
  Alcotest.(check bool) "conflict" false (Activation.compatible (seq "01") (seq "00"));
  Alcotest.(check bool) "different lengths" false
    (Activation.compatible (seq "01") (seq "010"))

let test_sequence_meet () =
  (match meet (seq "0X1X") (seq "X011") with
   | Some m -> Alcotest.(check string) "meet" "0011" (Activation.string_of_sequence m)
   | None -> Alcotest.fail "expected meet");
  Alcotest.(check bool) "conflicting meet" true (meet (seq "0") (seq "1") = None)

(* ---------- Valve ---------- *)

let test_valve_compat () =
  let a = mk_valve 0 1 1 "0X" and b = mk_valve 1 2 2 "00" and c = mk_valve 2 3 3 "11" in
  Alcotest.(check bool) "a~b" true (Valve.compatible a b);
  Alcotest.(check bool) "a~c" false (Valve.compatible a c);
  Alcotest.(check bool) "pairwise" true (Valve.pairwise_compatible [ a; b ]);
  Alcotest.(check bool) "pairwise fail" false (Valve.pairwise_compatible [ a; b; c ])

(* ---------- Cluster ---------- *)

let test_cluster_make () =
  let a = mk_valve 0 1 1 "0X" and b = mk_valve 1 2 2 "00" in
  (match Cluster.make ~id:0 ~length_matched:true [ b; a ] with
   | Ok c ->
     Alcotest.(check (list int)) "sorted ids" [ 0; 1 ] (Cluster.valve_ids c);
     Alcotest.(check bool) "needs matching" true (Cluster.needs_matching c)
   | Error e -> Alcotest.failf "unexpected error: %s" e);
  Alcotest.(check bool) "empty rejected" true
    (Result.is_error (Cluster.make ~id:0 ~length_matched:false []));
  let dup = mk_valve 0 9 9 "0X" in
  Alcotest.(check bool) "duplicate id rejected" true
    (Result.is_error (Cluster.make ~id:0 ~length_matched:false [ a; dup ]));
  let same_pos = mk_valve 5 1 1 "0X" in
  Alcotest.(check bool) "same position rejected" true
    (Result.is_error (Cluster.make ~id:0 ~length_matched:false [ a; same_pos ]));
  let c = mk_valve 2 3 3 "11" in
  Alcotest.(check bool) "incompatible rejected" true
    (Result.is_error (Cluster.make ~id:0 ~length_matched:false [ a; c ]))

let test_cluster_split () =
  let a = mk_valve 0 1 1 "0X" and b = mk_valve 1 2 2 "00" in
  let c = Cluster.make_exn ~id:7 ~length_matched:true [ a; b ] in
  let counter = ref 100 in
  let fresh () = incr counter; !counter in
  let singles = Cluster.split c ~fresh_id:fresh in
  Alcotest.(check int) "two singles" 2 (List.length singles);
  List.iter
    (fun (s : Cluster.t) ->
       Alcotest.(check int) "size 1" 1 (Cluster.size s);
       Alcotest.(check bool) "not LM" false s.length_matched)
    singles

let test_singleton_not_matching () =
  let a = mk_valve 0 1 1 "0X" in
  let c = Cluster.make_exn ~id:0 ~length_matched:true [ a ] in
  Alcotest.(check bool) "singleton never needs matching" false (Cluster.needs_matching c)

(* ---------- Clustering ---------- *)

let test_clustering_partition () =
  (* Three mutually compatible valves and one conflicting one. *)
  let vs =
    [ mk_valve 0 1 1 "0X"; mk_valve 1 2 2 "00"; mk_valve 2 3 3 "0X"; mk_valve 3 4 4 "11" ]
  in
  match Clustering.cluster vs with
  | Error e -> Alcotest.failf "clustering failed: %s" e
  | Ok p ->
    Alcotest.(check bool) "valid partition" true (Clustering.validate vs p.clusters = Ok ());
    Alcotest.(check int) "two clusters" 2 p.pin_count

let test_clustering_seeds_frozen () =
  let a = mk_valve 0 1 1 "00" and b = mk_valve 1 2 2 "00" in
  let c = mk_valve 2 3 3 "00" in
  let seed = Cluster.make_exn ~id:0 ~length_matched:true [ a; b ] in
  match Clustering.cluster ~seeds:[ seed ] [ a; b; c ] with
  | Error e -> Alcotest.failf "clustering failed: %s" e
  | Ok p ->
    (* c is compatible with the seed but must not join it. *)
    let seed_out = List.find (fun (cl : Cluster.t) -> cl.id = 0) p.clusters in
    Alcotest.(check (list int)) "seed intact" [ 0; 1 ] (Cluster.valve_ids seed_out);
    Alcotest.(check int) "two clusters" 2 (List.length p.clusters)

let test_clustering_max_size () =
  let vs = List.init 6 (fun i -> mk_valve i (i + 1) (i + 1) "00") in
  match Clustering.cluster ~max_cluster_size:2 vs with
  | Error e -> Alcotest.failf "clustering failed: %s" e
  | Ok p ->
    Alcotest.(check bool) "all clusters within cap" true
      (List.for_all (fun c -> Cluster.size c <= 2) p.clusters);
    Alcotest.(check int) "three clusters" 3 (List.length p.clusters)

let test_clustering_errors () =
  let a = mk_valve 0 1 1 "00" in
  let dup = mk_valve 0 2 2 "00" in
  Alcotest.(check bool) "duplicate ids" true (Result.is_error (Clustering.cluster [ a; dup ]));
  let ghost = mk_valve 9 9 9 "00" in
  let seed = Cluster.make_exn ~id:0 ~length_matched:true [ a; ghost ] in
  Alcotest.(check bool) "unknown seed valve" true
    (Result.is_error (Clustering.cluster ~seeds:[ seed ] [ a ]))

let test_clustering_validate_rejects () =
  let a = mk_valve 0 1 1 "00" and b = mk_valve 1 2 2 "00" in
  let c0 = Cluster.make_exn ~id:0 ~length_matched:false [ a ] in
  Alcotest.(check bool) "missing valve detected" true
    (Result.is_error (Clustering.validate [ a; b ] [ c0 ]))

(* ---------- QCheck ---------- *)

let arb_status =
  QCheck.oneofl [ Activation.Open; Activation.Closed; Activation.Dont_care ]

let arb_sequence =
  QCheck.map Array.of_list (QCheck.list_of_size (QCheck.Gen.return 6) arb_status)

let prop_compat_reflexive =
  QCheck.Test.make ~name:"compatibility reflexive" ~count:200 arb_sequence (fun s ->
    Activation.compatible s s)

let prop_compat_symmetric =
  QCheck.Test.make ~name:"compatibility symmetric" ~count:200
    (QCheck.pair arb_sequence arb_sequence)
    (fun (a, b) -> Activation.compatible a b = Activation.compatible b a)

let prop_meet_compatible_with_both =
  QCheck.Test.make ~name:"meet compatible with operands" ~count:200
    (QCheck.pair arb_sequence arb_sequence)
    (fun (a, b) ->
       match meet a b with
       | None -> not (Activation.compatible a b)
       | Some m -> Activation.compatible m a && Activation.compatible m b)

let prop_clustering_partitions =
  (* Random valves with random short sequences: the greedy clustering must
     always produce a valid partition into compatible cliques. *)
  let arb_valves =
    QCheck.map
      (fun seqs ->
         List.mapi
           (fun i s -> Valve.make ~id:i ~position:(Point.make i (2 * i)) ~sequence:s)
           seqs)
      (QCheck.list_of_size QCheck.Gen.(int_range 1 12) arb_sequence)
  in
  QCheck.Test.make ~name:"greedy clustering yields valid partition" ~count:100 arb_valves
    (fun vs ->
       match Clustering.cluster vs with
       | Error _ -> false
       | Ok p -> Clustering.validate vs p.clusters = Ok ())


(* ---------- Compatibility graph ---------- *)

let test_graph_basics () =
  let vs =
    [ mk_valve 0 1 1 "0X"; mk_valve 1 2 2 "00"; mk_valve 2 3 3 "11"; mk_valve 3 4 4 "X1" ]
  in
  let g = Compatibility_graph.build vs in
  Alcotest.(check int) "valves" 4 (Compatibility_graph.valve_count g);
  (* Pairs: 0~1 (0X/00), 2~3 (11/X1); 0!~2, 0!~3? 0X vs X1 -> 01 compatible!
     check individually. *)
  Alcotest.(check bool) "0~1" true (Compatibility_graph.compatible g 0 1);
  Alcotest.(check bool) "2~3" true (Compatibility_graph.compatible g 2 3);
  Alcotest.(check bool) "0!~2" false (Compatibility_graph.compatible g 0 2);
  Alcotest.(check bool) "self" true (Compatibility_graph.compatible g 1 1)

let test_graph_density_extremes () =
  let all_same = List.init 4 (fun i -> mk_valve i (i + 1) 1 "01") in
  let g = Compatibility_graph.build all_same in
  Alcotest.(check (float 1e-9)) "fully dense" 1.0 (Compatibility_graph.density g);
  Alcotest.(check int) "degree" 3 (Compatibility_graph.degree g 0)

let test_graph_pin_bounds () =
  (* Two incompatible groups of two: lower bound 2, cover 2. *)
  let vs =
    [ mk_valve 0 1 1 "01"; mk_valve 1 2 2 "01"; mk_valve 2 3 3 "10"; mk_valve 3 4 4 "10" ]
  in
  let g = Compatibility_graph.build vs in
  let lower, upper = Compatibility_graph.pin_bounds g in
  Alcotest.(check int) "lower" 2 lower;
  Alcotest.(check int) "upper" 2 upper;
  Alcotest.(check bool) "sane" true (lower <= upper)

let test_graph_duplicate_rejected () =
  Alcotest.check_raises "duplicate id"
    (Invalid_argument "Compatibility_graph.build: duplicate valve id") (fun () ->
      ignore (Compatibility_graph.build [ mk_valve 0 1 1 "01"; mk_valve 0 2 2 "01" ]))

let prop_pin_bounds_ordered =
  QCheck.Test.make ~name:"pin lower bound <= clique cover" ~count:80
    (QCheck.list_of_size QCheck.Gen.(int_range 1 10) arb_sequence)
    (fun seqs ->
       let vs =
         List.mapi
           (fun i s -> Valve.make ~id:i ~position:(Point.make i (i * 2)) ~sequence:s)
           seqs
       in
       let g = Compatibility_graph.build vs in
       let lower, upper = Compatibility_graph.pin_bounds g in
       lower >= 1 && lower <= upper && upper <= List.length vs)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_compat_reflexive; prop_compat_symmetric; prop_meet_compatible_with_both;
      prop_clustering_partitions; prop_pin_bounds_ordered ]

let () =
  Alcotest.run "valve"
    [ ( "activation",
        [ Alcotest.test_case "status compatibility" `Quick test_status_compat;
          Alcotest.test_case "status meet" `Quick test_status_meet;
          Alcotest.test_case "sequence parse" `Quick test_sequence_parse;
          Alcotest.test_case "sequence compatibility" `Quick test_sequence_compat;
          Alcotest.test_case "sequence meet" `Quick test_sequence_meet ] );
      ( "valve",
        [ Alcotest.test_case "compatibility" `Quick test_valve_compat ] );
      ( "cluster",
        [ Alcotest.test_case "make" `Quick test_cluster_make;
          Alcotest.test_case "split" `Quick test_cluster_split;
          Alcotest.test_case "singleton" `Quick test_singleton_not_matching ] );
      ( "clustering",
        [ Alcotest.test_case "partition" `Quick test_clustering_partition;
          Alcotest.test_case "seeds frozen" `Quick test_clustering_seeds_frozen;
          Alcotest.test_case "max size" `Quick test_clustering_max_size;
          Alcotest.test_case "errors" `Quick test_clustering_errors;
          Alcotest.test_case "validate rejects" `Quick test_clustering_validate_rejects ] );
      ( "compatibility_graph",
        [ Alcotest.test_case "basics" `Quick test_graph_basics;
          Alcotest.test_case "density" `Quick test_graph_density_extremes;
          Alcotest.test_case "pin bounds" `Quick test_graph_pin_bounds;
          Alcotest.test_case "duplicates" `Quick test_graph_duplicate_rejected ] );
      ("properties", qcheck_cases) ]
