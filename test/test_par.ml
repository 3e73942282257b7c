(* The domain-parallel batch-routing subsystem (pacor_par).

   The load-bearing property is the determinism contract: routing a batch
   on N worker domains must produce solutions byte-identical to sequential
   [Engine.run] calls — same paths, same stats, same per-stage search
   counters — with only wall-clock fields free to differ. The pool's own
   order-preservation and exception semantics are tested below it. *)

let corpus_dir =
  match Sys.getenv_opt "DUNE_SOURCEROOT" with
  | Some root -> Filename.concat root "corpus"
  | None -> Filename.concat (Sys.getcwd ()) "../../../corpus"

let corpus_names =
  [ "corpus-bigcluster"; "corpus-dense"; "corpus-obstacles"; "corpus-pairs" ]

let load name =
  let path = Filename.concat corpus_dir (name ^ ".chip") in
  match Pacor.Problem_io.load ~path with
  | Ok p -> p
  | Error e -> Alcotest.failf "cannot load %s: %s" path e

(* Search counters minus [grid_allocs]: allocation events measure workspace
   *warmth* (a batch worker's second instance reuses warm arrays and
   reports 0), so they are the one counter legitimately dependent on
   scheduling. Everything else is a pure function of (config, problem). *)
let pp_work ppf (s : Pacor_route.Search_stats.snapshot) =
  Format.fprintf ppf "searches=%d pops=%d pushes=%d touched=%d relax=%d resets=%d"
    s.Pacor_route.Search_stats.searches s.Pacor_route.Search_stats.pops
    s.Pacor_route.Search_stats.pushes s.Pacor_route.Search_stats.touched
    s.Pacor_route.Search_stats.relaxations s.Pacor_route.Search_stats.resets

(* Everything deterministic about a solution, as one string: the rendered
   routing (paths and escapes, cell by cell), the Table-2 statistics, the
   per-cluster matched lengths, and the per-stage search-work counters.
   Only runtime_s / stage_seconds / grid_allocs are excluded. *)
let fingerprint (sol : Pacor.Solution.t) =
  let st = Pacor.Solution.stats sol in
  Format.asprintf "%s|clusters=%d matched=%d matched_len=%d total=%d compl=%.9f|%a|%a"
    (Pacor.Render.solution sol)
    st.Pacor.Solution.clusters st.Pacor.Solution.matched_clusters
    st.Pacor.Solution.matched_length st.Pacor.Solution.total_length
    st.Pacor.Solution.completion
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ";")
       (fun ppf (c : Pacor.Solution.routed_cluster) ->
          Format.fprintf ppf "%d:%b:[%s]"
            c.Pacor.Solution.routed.Pacor.Routed.cluster.Pacor_valve.Cluster.id
            c.Pacor.Solution.matched
            (String.concat ","
               (List.map
                  (fun (vid, l) -> Printf.sprintf "%d=%d" vid l)
                  c.Pacor.Solution.lengths))))
    sol.Pacor.Solution.clusters
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ";")
       (fun ppf (label, snap) -> Format.fprintf ppf "%s:%a" label pp_work snap))
    sol.Pacor.Solution.stage_search

(* (a) Parallel equals sequential on the committed corpus. *)

let test_corpus_parallel_equals_sequential () =
  let named = List.map (fun n -> (n, load n)) corpus_names in
  let sequential =
    List.map
      (fun (n, p) ->
         match Pacor.Engine.run p with
         | Ok sol -> (n, sol)
         | Error e -> Alcotest.failf "sequential %s failed: %s" n e.message)
      named
  in
  let summary = Pacor_par.Batch.run_problems ~jobs:4 named in
  Alcotest.(check int) "one item per instance" (List.length named)
    (List.length summary.Pacor_par.Batch.items);
  Alcotest.(check (list string)) "input order preserved"
    (List.map fst named)
    (List.map (fun (i : Pacor_par.Batch.item) -> i.name) summary.Pacor_par.Batch.items);
  List.iter2
    (fun (n, seq_sol) (item : Pacor_par.Batch.item) ->
       match item.solution with
       | Error e ->
         Alcotest.failf "batch %s failed: %s" n
           (Pacor_par.Batch.error_to_string e)
       | Ok par_sol ->
         (match Pacor.Solution.validate par_sol with
          | Ok () -> ()
          | Error es ->
            Alcotest.failf "batch %s invalid: %s" n (String.concat "; " es));
         Alcotest.(check string)
           (n ^ " parallel solution is byte-identical to sequential")
           (fingerprint seq_sol) (fingerprint par_sol))
    sequential summary.Pacor_par.Batch.items;
  (* The aggregated search counters are the sum of the sequential runs'
     per-stage snapshots — scheduling-independent. *)
  let seq_total =
    List.fold_left
      (fun acc (_, sol) ->
         List.fold_left
           (fun acc (_, snap) -> Pacor_route.Search_stats.add acc snap)
           acc sol.Pacor.Solution.stage_search)
      Pacor_route.Search_stats.zero sequential
  in
  Alcotest.(check string) "aggregated search-work counters match sequential"
    (Format.asprintf "%a" pp_work seq_total)
    (Format.asprintf "%a" pp_work summary.Pacor_par.Batch.search)

let test_sweep_parallel_equals_sequential () =
  (* The delta-sweep wiring: same samples whatever the jobs count. *)
  let problem = load "corpus-bigcluster" in
  let deltas = [ 0; 1; 2; 3 ] in
  match
    Pacor_designs.Sweep.run ~jobs:1 ~deltas problem,
    Pacor_designs.Sweep.run ~jobs:3 ~deltas problem
  with
  | Ok seq, Ok par ->
    Alcotest.(check int) "same number of samples" (List.length seq) (List.length par);
    List.iter2
      (fun (a : Pacor_designs.Sweep.sample) (b : Pacor_designs.Sweep.sample) ->
         Alcotest.(check int) "delta" a.delta b.delta;
         Alcotest.(check int) "matched" a.matched b.matched;
         Alcotest.(check int) "total_length" a.total_length b.total_length)
      seq par
  | Error e, _ | _, Error e -> Alcotest.failf "sweep failed: %s" e

(* (b) Pool order preservation and exception propagation. *)

let test_pool_preserves_order () =
  let xs = List.init 100 Fun.id in
  Alcotest.(check (list int)) "map ~jobs:4 = List.map"
    (List.map (fun x -> (x * x) + 1) xs)
    (Pacor_par.Pool.map ~jobs:4 (fun x -> (x * x) + 1) xs)

exception Boom of int

let test_pool_propagates_exception () =
  let xs = List.init 50 Fun.id in
  match
    Pacor_par.Pool.map ~jobs:4
      (fun x -> if x mod 7 = 3 then raise (Boom x) else x)
      xs
  with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom x ->
    (* Deterministic join: the earliest-indexed failure wins even though a
       later-indexed task may raise first in wall-clock order. *)
    Alcotest.(check int) "earliest failing task reported" 3 x

let test_pool_shutdown_semantics () =
  let pool = Pacor_par.Pool.create ~jobs:2 () in
  Alcotest.(check int) "jobs" 2 (Pacor_par.Pool.jobs pool);
  let r1 = Pacor_par.Pool.map_ctx pool (fun _ x -> x + 1) [ 1; 2; 3 ] in
  let indices =
    Pacor_par.Pool.map_ctx pool
      (fun w _ -> Pacor_par.Pool.worker_index w)
      (List.init 8 Fun.id)
  in
  List.iter
    (fun i ->
       if i < 0 || i >= 2 then Alcotest.failf "worker index %d out of range" i)
    indices;
  Alcotest.(check (list int)) "pool reusable across map_ctx calls" [ 2; 3; 4 ] r1;
  Pacor_par.Pool.shutdown pool;
  Pacor_par.Pool.shutdown pool;  (* idempotent *)
  (match Pacor_par.Pool.map_ctx pool (fun _ x -> x) [ 1 ] with
   | _ -> Alcotest.fail "map_ctx after shutdown should raise"
   | exception Invalid_argument _ -> ())

(* (c) Fault isolation: a poisoned batch quarantines exactly the bad
   jobs, healthy jobs stay byte-identical to their sequential runs, and a
   raising worker task neither leaks domains nor poisons the pool. *)

let load_degenerate name =
  let path =
    Filename.concat (Filename.concat corpus_dir "degenerate") (name ^ ".chip")
  in
  match Pacor.Problem_io.load ~path with
  | Ok p -> p
  | Error e -> Alcotest.failf "cannot load %s: %s" path e

let test_batch_quarantines_infeasible () =
  let named =
    List.map (fun n -> (n, load n)) corpus_names
    @ [ ("corpus-infeasible", load_degenerate "corpus-infeasible") ]
  in
  let seq = Pacor_par.Batch.run_problems ~jobs:1 named in
  let par = Pacor_par.Batch.run_problems ~jobs:4 named in
  List.iter
    (fun (summary : Pacor_par.Batch.summary) ->
       Alcotest.(check int) "one item per job" (List.length named)
         (List.length summary.items);
       Alcotest.(check (list string)) "exactly the infeasible job quarantined"
         [ "corpus-infeasible" ]
         (List.map
            (fun (i : Pacor_par.Batch.item) -> i.name)
            summary.quarantined);
       List.iter
         (fun (i : Pacor_par.Batch.item) ->
            match i.solution with
            | Ok sol ->
              (match Pacor.Solution.validate sol with
               | Ok () -> ()
               | Error es ->
                 Alcotest.failf "healthy job %s invalid: %s" i.name
                   (String.concat "; " es))
            | Error (Pacor_par.Batch.Invalid violations) ->
              Alcotest.(check string) "infeasible job named" "corpus-infeasible"
                i.name;
              Alcotest.(check bool) "violations reported" true
                (violations <> [])
            | Error e ->
              Alcotest.failf "unexpected error class for %s: %s" i.name
                (Pacor_par.Batch.error_to_string e))
         summary.items)
    [ seq; par ];
  (* Healthy jobs are untouched by the poisoned neighbour: byte-identical
     between sequential and 4-way parallel runs. *)
  List.iter2
    (fun (a : Pacor_par.Batch.item) (b : Pacor_par.Batch.item) ->
       Alcotest.(check string) "same job" a.name b.name;
       match a.solution, b.solution with
       | Ok sa, Ok sb ->
         Alcotest.(check string)
           (a.name ^ " healthy job byte-identical under parallelism")
           (fingerprint sa) (fingerprint sb)
       | _ -> ())
    seq.Pacor_par.Batch.items par.Pacor_par.Batch.items

let test_batch_budget_exhaustion_and_retry () =
  (* A one-expansion budget deterministically starves every search; the
     degraded solution cannot validate, so the job is classified as
     budget exhaustion, retried once under a relaxed (doubled) budget —
     still hopeless — and quarantined with both attempts on record. *)
  let config =
    { Pacor.Config.default with
      limits = Pacor_route.Budget.limits ~max_expansions:1 () }
  in
  let summary =
    Pacor_par.Batch.run_problems ~retries:1 ~config
      [ ("corpus-dense", load "corpus-dense") ]
  in
  Alcotest.(check int) "retried" 1 summary.Pacor_par.Batch.retried_jobs;
  match summary.Pacor_par.Batch.quarantined with
  | [ item ] ->
    Alcotest.(check int) "both attempts made" 2 item.attempts;
    (match item.solution with
     | Error (Pacor_par.Batch.Budget_exhausted { reason; _ }) ->
       Alcotest.(check string) "expansion cap tripped" "expansions" reason
     | Error e ->
       Alcotest.failf "expected Budget_exhausted, got %s"
         (Pacor_par.Batch.error_to_string e)
     | Ok _ -> Alcotest.fail "expected quarantined item to carry an error")
  | items ->
    Alcotest.failf "expected one quarantined item, got %d" (List.length items)

let test_pool_worker_death_isolated () =
  let pool = Pacor_par.Pool.create ~jobs:2 () in
  let xs = List.init 20 Fun.id in
  let results =
    Pacor_par.Pool.try_map_ctx pool
      (fun _ x -> if x mod 5 = 2 then raise (Boom x) else x * 10)
      xs
  in
  Alcotest.(check int) "one slot per task" 20 (List.length results);
  List.iteri
    (fun i r ->
       match r with
       | Ok v -> Alcotest.(check int) "healthy task result" (i * 10) v
       | Error (Boom x) ->
         Alcotest.(check bool) "only poisoned tasks fail" true (x mod 5 = 2);
         Alcotest.(check int) "error in its own slot" i x
       | Error e -> Alcotest.failf "unexpected exception: %s" (Printexc.to_string e))
    results;
  (* The pool survives worker-task death: same pool, ordinary map. *)
  Alcotest.(check (list int)) "pool usable after task exceptions" [ 2; 4; 6 ]
    (Pacor_par.Pool.map_ctx pool (fun _ x -> 2 * x) [ 1; 2; 3 ]);
  Pacor_par.Pool.shutdown pool

(* (d) Stress: many tiny tasks, jobs > tasks, arbitrary shapes. *)

let prop_pool_map_is_map =
  QCheck.Test.make ~name:"Pool.map = List.map (any jobs, incl. jobs > tasks)"
    ~count:60
    QCheck.(pair (int_range 1 8) (small_list small_int))
    (fun (jobs, xs) ->
       Pacor_par.Pool.map ~jobs (fun x -> (2 * x) - 1) xs
       = List.map (fun x -> (2 * x) - 1) xs)

let prop_pool_many_tiny_tasks =
  QCheck.Test.make ~name:"many tiny tasks drain completely" ~count:10
    QCheck.(int_range 1 8)
    (fun jobs ->
       let n = 500 in
       let xs = List.init n Fun.id in
       let sum = List.fold_left ( + ) 0 (Pacor_par.Pool.map ~jobs succ xs) in
       sum = n * (n + 1) / 2)

(* ---------- Workspace reuse across grid sizes ---------- *)

let synth ~width ~height ~seed =
  Pacor_designs.Synthetic.generate_exn
    { Pacor_designs.Synthetic.name = "ws-reuse";
      width;
      height;
      obstacle_cells = 10;
      lm_cluster_sizes = [ 2 ];
      singleton_valves = 2;
      pin_count = 30;
      seed = Int64.of_int seed;
      delta = 1 }

let test_workspace_cross_size_reuse () =
  let stats = Pacor_route.Search_stats.create () in
  let ws = Pacor_route.Workspace.create ~stats () in
  let small = synth ~width:26 ~height:26 ~seed:7 in
  let big = synth ~width:96 ~height:96 ~seed:8 in
  let run problem =
    match Pacor.Engine.run ~workspace:ws problem with
    | Ok sol -> sol
    | Error e -> Alcotest.failf "engine: %s" e.message
  in
  let s1 = run small in
  let _b1 = run big in
  let warm = Pacor_route.Search_stats.snapshot stats in
  (* Warm reuse across sizes in both directions: the workspace has grown
     to the biggest instance and must not allocate again. *)
  let s2 = run small in
  let b2 = run big in
  let after = Pacor_route.Search_stats.snapshot stats in
  Alcotest.(check int) "no grid allocations on warm cross-size reuse" 0
    (Pacor_route.Search_stats.diff after warm).Pacor_route.Search_stats.grid_allocs;
  Alcotest.(check bool) "small validates warm" true (Pacor.Solution.validate s2 = Ok ());
  Alcotest.(check bool) "big validates warm" true (Pacor.Solution.validate b2 = Ok ());
  (* Workspace warmth never changes results (runtime_s is wall clock, so
     compare everything but it). *)
  let fresh =
    match Pacor.Engine.run small with
    | Ok sol -> sol
    | Error e -> Alcotest.failf "engine: %s" e.message
  in
  let key sol =
    let s = Pacor.Solution.stats sol in
    ( s.Pacor.Solution.clusters,
      s.Pacor.Solution.matched_clusters,
      s.Pacor.Solution.matched_length,
      s.Pacor.Solution.total_length,
      s.Pacor.Solution.completion )
  in
  Alcotest.(check bool) "warm == cold solution stats" true
    (key s2 = key fresh && key s1 = key fresh)

let test_pool_cross_size_reuse () =
  (* One worker domain: every problem funnels through the same pooled
     workspace, exercising grow-then-shrink-then-grow request orders. *)
  let pool = Pacor_par.Pool.create ~jobs:1 () in
  Fun.protect
    ~finally:(fun () -> Pacor_par.Pool.shutdown pool)
    (fun () ->
      let problems =
        [ synth ~width:26 ~height:26 ~seed:11;
          synth ~width:96 ~height:96 ~seed:12;
          synth ~width:26 ~height:26 ~seed:13 ]
      in
      let sols =
        Pacor_par.Pool.map_ctx pool
          (fun worker problem ->
            match
              Pacor.Engine.run ~workspace:(Pacor_par.Pool.worker_workspace worker) problem
            with
            | Ok sol -> sol
            | Error e -> failwith e.Pacor.Engine.message)
          problems
      in
      List.iteri
        (fun i sol ->
          Alcotest.(check bool)
            (Printf.sprintf "pooled solution %d validates" i)
            true
            (Pacor.Solution.validate sol = Ok ()))
        sols)

let () =
  Alcotest.run "par"
    [ ( "batch determinism",
        [ Alcotest.test_case "corpus: parallel = sequential (byte-identical)" `Slow
            test_corpus_parallel_equals_sequential;
          Alcotest.test_case "sweep: jobs=3 = jobs=1" `Slow
            test_sweep_parallel_equals_sequential ] );
      ( "pool semantics",
        [ Alcotest.test_case "order preservation" `Quick test_pool_preserves_order;
          Alcotest.test_case "exception propagation" `Quick
            test_pool_propagates_exception;
          Alcotest.test_case "reuse and shutdown" `Quick test_pool_shutdown_semantics ] );
      ( "fault isolation",
        [ Alcotest.test_case "infeasible job quarantined, healthy jobs identical"
            `Slow test_batch_quarantines_infeasible;
          Alcotest.test_case "budget exhaustion classified and retried" `Quick
            test_batch_budget_exhaustion_and_retry;
          Alcotest.test_case "worker death isolated, pool survives" `Quick
            test_pool_worker_death_isolated ] );
      ( "stress",
        List.map QCheck_alcotest.to_alcotest
          [ prop_pool_map_is_map; prop_pool_many_tiny_tasks ] );
      ( "workspace_reuse",
        [ Alcotest.test_case "cross-size engine reuse" `Quick test_workspace_cross_size_reuse;
          Alcotest.test_case "cross-size pool reuse" `Quick test_pool_cross_size_reuse ] ) ]
