type job = {
  name : string;
  problem : Pacor.Problem.t;
  config : Pacor.Config.t;
}

let job ?(config = Pacor.Config.default) ~name problem = { name; problem; config }

type job_error =
  | Engine_error of { stage : string; message : string }
  | Budget_exhausted of { reason : string; violations : string list }
  | Invalid of string list
  | Crashed of string

let error_to_string = function
  | Engine_error { stage; message } -> Printf.sprintf "%s: %s" stage message
  | Budget_exhausted { reason; violations } ->
    Printf.sprintf "budget exhausted (%s): %d violation(s)" reason
      (List.length violations)
  | Invalid violations ->
    Printf.sprintf "invalid solution: %s" (String.concat "; " violations)
  | Crashed message -> Printf.sprintf "crashed: %s" message

type item = {
  name : string;
  solution : (Pacor.Solution.t, job_error) result;
  attempts : int;
  degraded : bool;
  elapsed_s : float;
}

type summary = {
  items : item list;
  jobs : int;
  elapsed_s : float;
  sequential_s : float;
  search : Pacor_route.Search_stats.snapshot;
  degraded_jobs : int;
  retried_jobs : int;
  quarantined : item list;
}

let speedup s = if s.elapsed_s > 0.0 then s.sequential_s /. s.elapsed_s else 1.0

(* A job succeeds when the engine returns a solution that passes the
   independent validator. An invalid solution produced under an exhausted
   budget is a budget failure (the instance might be routable with more
   room — that is what a relaxed retry probes); an invalid solution under
   no budget pressure is structural infeasibility or congestion. *)
let classify (result : (Pacor.Solution.t, Pacor.Engine.error) result) =
  match result with
  | Error (e : Pacor.Engine.error) ->
    Error (Engine_error { stage = e.stage; message = e.message })
  | Ok sol ->
    (match Pacor.Solution.validate sol with
     | Ok () -> Ok sol
     | Error violations ->
       (match sol.Pacor.Solution.budget_exhausted with
        | Some reason ->
          Error
            (Budget_exhausted
               { reason = Pacor_route.Budget.reason_label reason; violations })
        | None -> Error (Invalid violations)))

(* One job, fault-isolated: the engine is total, but any residual exception
   (engine bug, OOM) is still confined to this item. Failures retry up to
   [retries] times under a progressively relaxed config; a success on any
   attempt wins. *)
let route_one ~retries (w : Pool.worker) (j : job) =
  let t0 = Pacor_route.Clock.now_mono () in
  let attempt config =
    match
      Pacor.Engine.run ~config ~workspace:(Pool.worker_workspace w) j.problem
    with
    | result -> classify result
    | exception exn -> Error (Crashed (Printexc.to_string exn))
  in
  let rec go config attempts =
    match attempt config with
    | Ok sol -> (Ok sol, attempts, Pacor.Solution.degraded sol)
    | Error _ when attempts <= retries ->
      go (Pacor.Config.relax config) (attempts + 1)
    | Error _ as e -> (e, attempts, false)
  in
  let solution, attempts, degraded = go j.config 1 in
  { name = j.name; solution; attempts; degraded;
    elapsed_s = Pacor_route.Clock.now_mono () -. t0 }

let solution_search (sol : Pacor.Solution.t) =
  List.fold_left
    (fun acc (_, snap) -> Pacor_route.Search_stats.add acc snap)
    Pacor_route.Search_stats.zero sol.Pacor.Solution.stage_search

let summarize ~jobs ~elapsed_s items =
  {
    items;
    jobs;
    elapsed_s;
    sequential_s =
      List.fold_left (fun acc (i : item) -> acc +. i.elapsed_s) 0.0 items;
    (* Summing the solutions' own per-stage snapshots (rather than the
       workers' live counters) keeps the aggregate deterministic and
       independent of pool reuse. *)
    search =
      List.fold_left
        (fun acc i ->
           match i.solution with
           | Ok sol -> Pacor_route.Search_stats.add acc (solution_search sol)
           | Error _ -> acc)
        Pacor_route.Search_stats.zero items;
    degraded_jobs = List.length (List.filter (fun i -> i.degraded) items);
    retried_jobs = List.length (List.filter (fun i -> i.attempts > 1) items);
    quarantined = List.filter (fun i -> Result.is_error i.solution) items;
  }

let run_on ?(retries = 0) pool jobs_list =
  if retries < 0 then invalid_arg "Batch.run_on: retries must be >= 0";
  let t0 = Pacor_route.Clock.now_mono () in
  (* [route_one] already confines engine exceptions, so the [Error] arm
     only fires on a failure in the item plumbing itself — even then the
     damage stays within this job's slot. *)
  let items =
    List.map2
      (fun (j : job) -> function
        | Ok item -> item
        | Error exn ->
          { name = j.name;
            solution = Error (Crashed (Printexc.to_string exn));
            attempts = 1; degraded = false; elapsed_s = 0.0 })
      jobs_list
      (Pool.try_map_ctx pool (route_one ~retries) jobs_list)
  in
  summarize ~jobs:(Pool.jobs pool) ~elapsed_s:(Pacor_route.Clock.now_mono () -. t0) items

let run ?(jobs = 1) ?retries jobs_list =
  Pool.with_pool ~jobs (fun pool -> run_on ?retries pool jobs_list)

let run_problems ?jobs ?retries ?config named =
  run ?jobs ?retries (List.map (fun (name, problem) -> job ?config ~name problem) named)

let load_dir dir =
  match Sys.readdir dir with
  | exception Sys_error e -> Error e
  | entries ->
    let chips =
      Array.to_list entries
      |> List.filter (fun f -> Filename.check_suffix f ".chip")
      |> List.sort String.compare
    in
    if chips = [] then Error (Printf.sprintf "no *.chip files in %s" dir)
    else
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | f :: rest ->
          let path = Filename.concat dir f in
          (match Pacor.Problem_io.load ~path with
           | Error e -> Error (Printf.sprintf "%s: %s" path e)
           | Ok p -> go ((Filename.chop_suffix f ".chip", p) :: acc) rest)
      in
      go [] chips

let pp_summary ppf s =
  Format.fprintf ppf "%-22s %10s %10s %11s %8s@." "instance" "matched" "total_len"
    "completion" "time";
  List.iter
    (fun i ->
       match i.solution with
       | Error e -> Format.fprintf ppf "%-22s FAILED: %s@." i.name (error_to_string e)
       | Ok sol ->
         let st = Pacor.Solution.stats sol in
         Format.fprintf ppf "%-22s %6d/%-3d %10d %10.0f%% %7.2fs%s@." i.name
           st.Pacor.Solution.matched_clusters st.Pacor.Solution.clusters
           st.Pacor.Solution.total_length
           (100.0 *. st.Pacor.Solution.completion)
           i.elapsed_s
           (if i.degraded then "  (degraded)" else ""))
    s.items;
  Format.fprintf ppf
    "batch: %d instances on %d domains in %.2fs (sequential %.2fs, speedup %.2fx)@."
    (List.length s.items) s.jobs s.elapsed_s s.sequential_s (speedup s);
  Format.fprintf ppf "search: %a@." Pacor_route.Search_stats.pp s.search;
  if s.degraded_jobs > 0 || s.retried_jobs > 0 then
    Format.fprintf ppf "degradation: %d degraded, %d retried@." s.degraded_jobs
      s.retried_jobs;
  match s.quarantined with
  | [] -> ()
  | q ->
    Format.fprintf ppf "quarantine: %d job(s) permanently failed@."
      (List.length q);
    List.iter
      (fun i ->
         Format.fprintf ppf "  %-20s after %d attempt(s): %s@." i.name i.attempts
           (match i.solution with
            | Error e -> error_to_string e
            | Ok _ -> assert false))
      q
