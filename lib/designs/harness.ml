let variants =
  [ Pacor.Config.Without_selection; Pacor.Config.Detour_first; Pacor.Config.Full ]

(* Batch jobs come back pre-validated: an [Ok] item passed
   [Solution.validate] inside the runner, so only the error arm needs
   translation here. *)
let checked_stats ~variant
    (solution : (Pacor.Solution.t, Pacor_par.Batch.job_error) result) =
  match solution with
  | Error e ->
    Error
      (Printf.sprintf "%s failed: %s" (Pacor.Config.variant_name variant)
         (Pacor_par.Batch.error_to_string e))
  | Ok sol -> Ok (Pacor.Solution.stats sol)

(* One batch job per (design, variant): Table 2's whole grid of runs is
   embarrassingly parallel, and routing each variant independently on the
   pool leaves every row identical to the sequential harness. *)
let measure_problems ?(progress = fun _ -> ()) ?(jobs = 1)
    ?(limits = Pacor_route.Budget.no_limits) ?retries problems =
  let job_of (problem : Pacor.Problem.t) variant =
    Pacor_par.Batch.job
      ~config:{ (Pacor.Config.make ~variant ()) with limits }
      ~name:
        (Printf.sprintf "%s/%s" problem.Pacor.Problem.name
           (Pacor.Config.variant_name variant))
      problem
  in
  let summary =
    Pacor_par.Batch.run ~jobs ?retries
      (List.concat_map (fun p -> List.map (job_of p) variants) problems)
  in
  (* Items come back in job order: three consecutive per design. *)
  let rec rows acc problems (items : Pacor_par.Batch.item list) =
    match problems, items with
    | [], [] -> Ok (List.rev acc)
    | (p : Pacor.Problem.t) :: prest, wosel :: detour :: pacor :: irest ->
      let stats variant (i : Pacor_par.Batch.item) =
        checked_stats ~variant i.Pacor_par.Batch.solution
      in
      (match
         stats Pacor.Config.Without_selection wosel,
         stats Pacor.Config.Detour_first detour,
         stats Pacor.Config.Full pacor
       with
       | Ok without_sel, Ok detour_first, Ok pacor ->
         let row =
           Pacor.Report.row_of_stats ~design:p.Pacor.Problem.name ~without_sel
             ~detour_first ~pacor
         in
         progress p.Pacor.Problem.name;
         rows (row :: acc) prest irest
       | Error e, _, _ | _, Error e, _ | _, _, Error e -> Error e)
    | _ -> Error "harness: batch returned a different number of items"
  in
  rows [] problems summary.Pacor_par.Batch.items

let measure_table2 ?progress ?jobs ?limits ?retries names =
  let rec load acc = function
    | [] -> Ok (List.rev acc)
    | n :: rest ->
      (match Table1.load n with
       | Error _ as e -> e
       | Ok problem -> load (problem :: acc) rest)
  in
  match load [] names with
  | Error _ as e -> e
  | Ok problems -> measure_problems ?progress ?jobs ?limits ?retries problems
