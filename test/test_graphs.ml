open Pacor_graphs

(* ---------- Pqueue ---------- *)

let test_pqueue_order () =
  let q = Pqueue.create () in
  List.iter (fun p -> Pqueue.push q ~prio:p p) [ 5; 1; 4; 2; 3 ];
  let drained = ref [] in
  let rec drain () =
    match Pqueue.pop q with
    | None -> ()
    | Some (p, _) ->
      drained := p :: !drained;
      drain ()
  in
  drain ();
  Alcotest.(check (list int)) "sorted ascending" [ 1; 2; 3; 4; 5 ] (List.rev !drained)

let test_pqueue_empty () =
  let q = Pqueue.create () in
  Alcotest.(check bool) "empty" true (Pqueue.is_empty q);
  Alcotest.(check bool) "pop none" true (Pqueue.pop q = None);
  Alcotest.check_raises "pop_top on empty" (Invalid_argument "Pqueue.pop_top: empty queue")
    (fun () -> ignore (Pqueue.pop_top q));
  Pqueue.push q ~prio:1 10;
  Alcotest.(check int) "size" 1 (Pqueue.size q);
  Pqueue.clear q;
  Alcotest.(check bool) "cleared" true (Pqueue.is_empty q)

let test_pqueue_duplicates () =
  let q = Pqueue.create () in
  Pqueue.push q ~prio:2 10;
  Pqueue.push q ~prio:2 11;
  Pqueue.push q ~prio:1 12;
  (match Pqueue.pop q with
   | Some (1, 12) -> ()
   | _ -> Alcotest.fail "expected 12 first");
  Alcotest.(check int) "two left" 2 (Pqueue.size q)

(* Interleaved push/pop/clear across the grow boundary: [size]/[is_empty]
   must stay consistent and ordering must survive a clear-and-reuse. *)
let test_pqueue_interleaved () =
  let q = Pqueue.create () in
  List.iter (fun p -> Pqueue.push q ~prio:p p) [ 9; 3; 7; 1 ];
  Alcotest.(check int) "size after pushes" 4 (Pqueue.size q);
  Alcotest.(check bool) "pop min" true (Pqueue.pop q = Some (1, 1));
  Alcotest.(check bool) "pop next" true (Pqueue.pop q = Some (3, 3));
  Alcotest.(check int) "size after pops" 2 (Pqueue.size q);
  Alcotest.(check bool) "not empty" false (Pqueue.is_empty q);
  (* Push past the initial capacity while partially drained. *)
  List.iter (fun p -> Pqueue.push q ~prio:p p) (List.init 40 (fun i -> 100 - i));
  Alcotest.(check int) "size after growth" 42 (Pqueue.size q);
  Alcotest.(check bool) "old min still first" true (Pqueue.pop q = Some (7, 7));
  Pqueue.clear q;
  Alcotest.(check bool) "cleared" true (Pqueue.is_empty q);
  Alcotest.(check int) "size zero" 0 (Pqueue.size q);
  Alcotest.(check bool) "pop on cleared" true (Pqueue.pop q = None);
  (* Reuse after clear: ordering still correct. *)
  List.iter (fun p -> Pqueue.push q ~prio:p p) [ 5; 2; 8 ];
  Alcotest.(check bool) "reuse min" true (Pqueue.pop q = Some (2, 2));
  Alcotest.(check bool) "reuse next" true (Pqueue.pop q = Some (5, 5));
  Alcotest.(check bool) "reuse last" true (Pqueue.pop q = Some (8, 8));
  Alcotest.(check bool) "drained" true (Pqueue.is_empty q)

(* ---------- Union-find ---------- *)

let test_union_find () =
  let uf = Union_find.create 5 in
  Alcotest.(check int) "initial classes" 5 (Union_find.count uf);
  Alcotest.(check bool) "union succeeds" true (Union_find.union uf 0 1);
  Alcotest.(check bool) "repeat union fails" false (Union_find.union uf 1 0);
  Alcotest.(check int) "classes after one union" 4 (Union_find.count uf);
  ignore (Union_find.union uf 2 3);
  ignore (Union_find.union uf 0 3);
  Alcotest.(check int) "classes after unions" 2 (Union_find.count uf);
  Alcotest.(check bool) "transitively joined" false (Union_find.union uf 1 2)

(* ---------- MST ---------- *)

(* Brute-force MST weight by enumerating all spanning trees of small n via
   Prufer-free approach: enumerate all edge subsets of size n-1. *)
let brute_mst_weight ~n ~weight =
  let edges = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      edges := (i, j, weight i j) :: !edges
    done
  done;
  let all = Array.of_list !edges in
  let m = Array.length all in
  let best = ref max_int in
  (* Enumerate bitmasks with n-1 edges. *)
  for mask = 0 to (1 lsl m) - 1 do
    let popcount = ref 0 and w = ref 0 in
    for b = 0 to m - 1 do
      if mask land (1 lsl b) <> 0 then begin
        incr popcount;
        let _, _, ew = all.(b) in
        w := !w + ew
      end
    done;
    if !popcount = n - 1 && !w < !best then begin
      let uf = Union_find.create n in
      let connected = ref 0 in
      for b = 0 to m - 1 do
        if mask land (1 lsl b) <> 0 then begin
          let i, j, _ = all.(b) in
          if Union_find.union uf i j then incr connected
        end
      done;
      if !connected = n - 1 then best := !w
    end
  done;
  !best

let test_prim_matches_brute_force () =
  let rng = ref 42 in
  let next () =
    rng := (!rng * 1103515245) + 12345;
    abs !rng mod 50
  in
  for _trial = 1 to 10 do
    let n = 5 in
    let w = Array.make_matrix n n 0 in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        let v = 1 + next () in
        w.(i).(j) <- v;
        w.(j).(i) <- v
      done
    done;
    let weight i j = w.(i).(j) in
    let mst = Mst.prim ~n ~weight in
    Alcotest.(check bool) "spanning tree" true (Mst.is_spanning_tree ~n mst);
    Alcotest.(check int) "optimal weight" (brute_mst_weight ~n ~weight)
      (Mst.total_weight mst)
  done

let test_prim_trivial () =
  Alcotest.(check (list (of_pp (fun _ _ -> ())))) "empty" [] (Mst.prim ~n:0 ~weight:(fun _ _ -> 0));
  Alcotest.(check int) "single" 0 (List.length (Mst.prim ~n:1 ~weight:(fun _ _ -> 0)));
  Alcotest.(check int) "pair" 1 (List.length (Mst.prim ~n:2 ~weight:(fun _ _ -> 7)))

(* ---------- Clique ---------- *)

let graph_of_edges n edges =
  let m = Array.make_matrix n n false in
  List.iter
    (fun (i, j) ->
       m.(i).(j) <- true;
       m.(j).(i) <- true)
    edges;
  Clique.of_matrix m

let brute_max_clique g =
  let best = ref [] in
  let n = g.Clique.n in
  for mask = 0 to (1 lsl n) - 1 do
    let members = List.filter (fun v -> mask land (1 lsl v) <> 0) (List.init n Fun.id) in
    if Clique.is_clique g members && List.length members > List.length !best then
      best := members
  done;
  !best

let test_max_clique_simple () =
  (* Triangle 0-1-2 plus pendant 3. *)
  let g = graph_of_edges 4 [ (0, 1); (1, 2); (0, 2); (2, 3) ] in
  Alcotest.(check (list int)) "triangle" [ 0; 1; 2 ] (Clique.max_clique g)

let test_max_clique_random_vs_brute () =
  let rng = ref 7 in
  let next () =
    rng := (!rng * 1103515245) + 12345;
    abs !rng
  in
  for _trial = 1 to 15 do
    let n = 9 in
    let edges = ref [] in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        if next () mod 100 < 45 then edges := (i, j) :: !edges
      done
    done;
    let g = graph_of_edges n !edges in
    let exact = Clique.max_clique g in
    Alcotest.(check bool) "is clique" true (Clique.is_clique g exact);
    Alcotest.(check int) "max size" (List.length (brute_max_clique g)) (List.length exact)
  done

let test_greedy_clique_is_clique () =
  let g = graph_of_edges 6 [ (0, 1); (1, 2); (0, 2); (3, 4); (2, 3) ] in
  let c = Clique.greedy_clique g in
  Alcotest.(check bool) "greedy valid" true (Clique.is_clique g c);
  Alcotest.(check bool) "non-empty" true (c <> [])

let test_max_weight_clique () =
  (* Triangle with strongly negative edges: best weighted clique is a
     single heavy node. *)
  let g = graph_of_edges 3 [ (0, 1); (1, 2); (0, 2) ] in
  let w =
    { Clique.graph = g;
      node_weight = (fun v -> float_of_int (v + 1));
      edge_weight = (fun _ _ -> -100.0) }
  in
  let clique, weight = Clique.max_weight_clique w in
  Alcotest.(check (list int)) "heaviest node" [ 2 ] clique;
  Alcotest.(check (float 1e-9)) "weight" 3.0 weight

let test_max_weight_clique_positive_edges () =
  let g = graph_of_edges 4 [ (0, 1); (1, 2); (0, 2); (2, 3) ] in
  let w =
    { Clique.graph = g;
      node_weight = (fun _ -> 1.0);
      edge_weight = (fun _ _ -> 0.5) }
  in
  let clique, weight = Clique.max_weight_clique w in
  Alcotest.(check (list int)) "triangle wins" [ 0; 1; 2 ] clique;
  Alcotest.(check (float 1e-9)) "weight 3 + 1.5" 4.5 weight

let test_max_weight_clique_forced () =
  let g = graph_of_edges 3 [ (0, 1); (1, 2); (0, 2) ] in
  let w =
    { Clique.graph = g;
      node_weight = (fun v -> float_of_int (v + 1));
      edge_weight = (fun _ _ -> -100.0) }
  in
  let clique, _ = Clique.max_weight_clique ~forced:[ 0 ] w in
  Alcotest.(check bool) "contains forced" true (List.mem 0 clique)

let brute_max_weight_clique w =
  let g = w.Clique.graph in
  let n = g.Clique.n in
  let best = ref ([], neg_infinity) in
  for mask = 0 to (1 lsl n) - 1 do
    let members = List.filter (fun v -> mask land (1 lsl v) <> 0) (List.init n Fun.id) in
    if Clique.is_clique g members then begin
      let cw = Clique.clique_weight w members in
      if cw > snd !best then best := (members, cw)
    end
  done;
  !best

let test_max_weight_clique_vs_brute () =
  let rng = ref 13 in
  let next () =
    rng := (!rng * 1103515245) + 12345;
    abs !rng
  in
  for _trial = 1 to 10 do
    let n = 7 in
    let edges = ref [] in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        if next () mod 100 < 55 then edges := (i, j) :: !edges
      done
    done;
    let g = graph_of_edges n !edges in
    let nw = Array.init n (fun _ -> float_of_int (next () mod 21 - 10)) in
    let ew = Array.make_matrix n n 0.0 in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        let v = float_of_int (next () mod 11 - 5) in
        ew.(i).(j) <- v;
        ew.(j).(i) <- v
      done
    done;
    let w =
      { Clique.graph = g;
        node_weight = (fun v -> nw.(v));
        edge_weight = (fun i j -> ew.(i).(j)) }
    in
    let _, exact_w = Clique.max_weight_clique w in
    let _, brute_w = brute_max_weight_clique w in
    Alcotest.(check (float 1e-9)) "optimal weight" brute_w exact_w
  done

(* ---------- QCheck ---------- *)

let prop_pqueue_sorted =
  QCheck.Test.make ~name:"pqueue drains sorted" ~count:200
    (QCheck.list (QCheck.int_range (-1000) 1000))
    (fun xs ->
       let q = Pqueue.create () in
       List.iter (fun x -> Pqueue.push q ~prio:x x) xs;
       let rec drain acc =
         match Pqueue.pop q with None -> List.rev acc | Some (p, _) -> drain (p :: acc)
       in
       drain [] = List.sort Int.compare xs)

(* Tie-order oracle: the searches' expansion order, and so their paths and
   counters, follow the heap's tie order, so [Pqueue] must pop exactly the
   stream of the swap-based reference heap it replaced. Priorities span a
   few values so most pops break ties; op lists run past the 16-entry
   first capacity and its doublings. *)
type pq_op = Push of int * int | Pop | Pop_top | Clear

let pq_op_gen =
  QCheck.Gen.(
    frequency
      [ (6, map2 (fun p x -> Push (p, x)) (int_range 0 4) (int_range 0 1000));
        (3, return Pop);
        (2, return Pop_top);
        (1, return Clear) ])

let pq_op_print = function
  | Push (p, x) -> Printf.sprintf "push %d %d" p x
  | Pop -> "pop"
  | Pop_top -> "pop_top"
  | Clear -> "clear"

let prop_pqueue_matches_reference =
  QCheck.Test.make ~name:"pqueue matches reference tie order" ~count:300
    (QCheck.make ~print:QCheck.Print.(list pq_op_print)
       QCheck.Gen.(list_size (int_range 0 400) pq_op_gen))
    (fun ops ->
       let q = Pqueue.create () and r = Pqueue_ref.create () in
       List.for_all
         (fun op ->
            let same =
              match op with
              | Push (p, x) ->
                Pqueue.push q ~prio:p x;
                Pqueue_ref.push r ~prio:p x;
                true
              | Pop -> Pqueue.pop q = Pqueue_ref.pop r
              | Pop_top ->
                if Pqueue_ref.is_empty r then Pqueue.is_empty q
                else Some (Pqueue.pop_top q) = Option.map snd (Pqueue_ref.pop r)
              | Clear ->
                Pqueue.clear q;
                Pqueue_ref.clear r;
                true
            in
            same && Pqueue.size q = Pqueue_ref.size r)
         ops)

let prop_mst_edge_count =
  QCheck.Test.make ~name:"prim returns n-1 edges" ~count:100 (QCheck.int_range 1 20)
    (fun n ->
       let weight i j = ((i + j) mod 7) + 1 in
       let mst = Mst.prim ~n ~weight in
       Mst.is_spanning_tree ~n mst || (n = 1 && mst = []))

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest [ prop_pqueue_sorted; prop_pqueue_matches_reference; prop_mst_edge_count ]

let () =
  Alcotest.run "graphs"
    [ ( "pqueue",
        [ Alcotest.test_case "ordering" `Quick test_pqueue_order;
          Alcotest.test_case "empty/clear" `Quick test_pqueue_empty;
          Alcotest.test_case "duplicates" `Quick test_pqueue_duplicates;
          Alcotest.test_case "interleaved push/pop/clear" `Quick test_pqueue_interleaved ] );
      ("union_find", [ Alcotest.test_case "basics" `Quick test_union_find ]);
      ( "mst",
        [ Alcotest.test_case "prim vs brute force" `Slow test_prim_matches_brute_force;
          Alcotest.test_case "trivial sizes" `Quick test_prim_trivial ] );
      ( "clique",
        [ Alcotest.test_case "simple" `Quick test_max_clique_simple;
          Alcotest.test_case "random vs brute force" `Slow test_max_clique_random_vs_brute;
          Alcotest.test_case "greedy valid" `Quick test_greedy_clique_is_clique;
          Alcotest.test_case "weighted negative edges" `Quick test_max_weight_clique;
          Alcotest.test_case "weighted positive edges" `Quick
            test_max_weight_clique_positive_edges;
          Alcotest.test_case "forced vertices" `Quick test_max_weight_clique_forced;
          Alcotest.test_case "weighted vs brute force" `Slow test_max_weight_clique_vs_brute ] );
      ("properties", qcheck_cases) ]
