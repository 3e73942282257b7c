(* PACOR command-line interface: route instances, list the Table 1
   designs, regenerate Table 2, and print the Fig. 3 candidate trees.

   Exit codes (documented in README):
     0  success
     1  validation violation (solution breaks a design rule) or a batch
        quarantine containing only validation/budget failures
     2  parse/load error (instance file, directory, unknown design)
     3  engine error (structural failure inside the flow), or a batch
        quarantine containing an engine error / crash
   Cmdliner reserves 124/125 for CLI usage/internal errors. *)

open Cmdliner

let exit_violation = 1
let exit_parse = 2
let exit_engine = 3

let fail code fmt = Format.kasprintf (fun s -> Format.eprintf "pacor: %s@." s; code) fmt

let variant_conv =
  let parse = function
    | "full" | "pacor" -> Ok Pacor.Config.Full
    | "wosel" | "no-selection" -> Ok Pacor.Config.Without_selection
    | "detour-first" | "detourfirst" -> Ok Pacor.Config.Detour_first
    | s -> Error (`Msg (Printf.sprintf "unknown variant %S (full|wosel|detour-first)" s))
  in
  let print ppf v = Format.fprintf ppf "%s" (Pacor.Config.variant_name v) in
  Arg.conv (parse, print)

let pos_float_conv =
  let parse s =
    match float_of_string_opt s with
    | Some f when f > 0.0 -> Ok f
    | Some _ | None -> Error (`Msg (Printf.sprintf "expected a positive number, got %S" s))
  in
  Arg.conv (parse, Format.pp_print_float)

let pos_int_conv =
  let parse s =
    match int_of_string_opt s with
    | Some n when n > 0 -> Ok n
    | Some _ | None -> Error (`Msg (Printf.sprintf "expected a positive integer, got %S" s))
  in
  Arg.conv (parse, Format.pp_print_int)

(* Built-in designs: the Table 1 set first, then the synthetic Scaled
   family (Scaled1..Scaled8), then the named FPVA lattices: fpva20-p8 is
   the side-20 pitch-8 lattice on which rematch's joint reroute rescues a
   pair. *)
let fpva_lattices =
  [ { Pacor_designs.Fpva.name = "fpva20-p8"; rows = 20; cols = 20; pitch = 8; group = 7;
      seed = 1L; delta = 2 } ]

let load_design name =
  match Pacor_designs.Table1.load name with
  | Ok p -> Ok p
  | Error e -> (
    match Pacor_designs.Scaled.of_name name with
    | Some s -> Pacor_designs.Scaled.load s
    | None -> (
      match List.find_opt (fun (s : Pacor_designs.Fpva.spec) -> s.name = name) fpva_lattices with
      | Some s -> Pacor_designs.Fpva.generate s
      | None -> Error e))

let load_problem ~design ~file =
  match design, file with
  | Some d, None -> load_design d
  | None, Some path -> Pacor.Problem_io.load ~path
  | Some _, Some _ -> Error "pass either --design or --file, not both"
  | None, None -> Error "pass --design NAME or --file PATH"

(* ---- shared args ---- *)

(* [--jobs] takes a count or the literal [auto] (all cores). *)
let jobs_conv =
  let parse s =
    match String.lowercase_ascii (String.trim s) with
    | "auto" -> Ok (Domain.recommended_domain_count ())
    | s -> (
      match int_of_string_opt s with
      | Some n when n > 0 -> Ok n
      | Some _ | None ->
        Error (`Msg (Printf.sprintf "expected a positive integer or 'auto', got %S" s)))
  in
  Arg.conv (parse, Format.pp_print_int)

let jobs_arg =
  Arg.(value & opt jobs_conv 1 & info [ "jobs"; "j" ] ~docv:"N"
         ~doc:"Worker domains (default 1; $(b,auto) = one per core). \
               Independent instances route one per worker; results stay \
               byte-identical to $(b,--jobs 1).")

let timeout_arg =
  Arg.(value & opt (some pos_float_conv) None & info [ "timeout" ] ~docv:"SECONDS"
         ~doc:"Wall-clock search budget per engine run; when it expires the flow \
               degrades gracefully (skipped refinement, unrouted diagnostics) \
               instead of hanging.")

let max_expansions_arg =
  Arg.(value & opt (some pos_int_conv) None & info [ "max-expansions" ] ~docv:"N"
         ~doc:"Cap on total search-queue expansions per engine run; deterministic \
               alternative to $(b,--timeout).")

let retries_arg =
  Arg.(value & opt int 0 & info [ "retries" ] ~docv:"N"
         ~doc:"Re-attempts for a failing run under a progressively relaxed config \
               (doubled budgets, roomier detour/rip-up bounds); default 0.")

let limits_term =
  let make timeout_s max_expansions =
    Pacor_route.Budget.limits ?timeout_s ?max_expansions ()
  in
  Term.(const make $ timeout_arg $ max_expansions_arg)

(* ---- route ---- *)

let route_cmd =
  let design =
    Arg.(value & opt (some string) None & info [ "design"; "d" ] ~docv:"NAME"
           ~doc:"Route a built-in Table 1 design (Chip1, Chip2, S1..S5).")
  in
  let file =
    Arg.(value & opt (some string) None & info [ "file"; "f" ] ~docv:"PATH"
           ~doc:"Route an instance from a problem file (see lib/core/problem_io.mli).")
  in
  let variant =
    Arg.(value & opt variant_conv Pacor.Config.Full & info [ "variant"; "v" ]
           ~docv:"VARIANT" ~doc:"Flow variant: full, wosel or detour-first.")
  in
  let verbose = Arg.(value & flag & info [ "verbose" ] ~doc:"Log flow stages.") in
  let render =
    Arg.(value & flag & info [ "render" ] ~doc:"Print an ASCII rendering of the solution.")
  in
  let skew =
    Arg.(value & flag & info [ "skew" ]
           ~doc:"Print the pressure-propagation actuation skew per cluster.")
  in
  let save =
    Arg.(value & opt (some string) None & info [ "save-instance" ] ~docv:"PATH"
           ~doc:"Also write the instance to a problem file.")
  in
  let svg =
    Arg.(value & opt (some string) None & info [ "svg" ] ~docv:"PATH"
           ~doc:"Write an SVG drawing of the routed chip.")
  in
  let json =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Print a machine-readable JSON solution summary (the serve \
                 protocol's result schema) instead of the human-readable report.")
  in
  let run design file variant verbose render skew save svg json limits retries =
    match load_problem ~design ~file with
    | Error msg -> fail exit_parse "%s" msg
    | Ok problem ->
      (match save with
       | Some path ->
         (match Pacor.Problem_io.save problem ~path with
          | Ok () -> ()
          | Error e -> Format.eprintf "warning: could not save instance: %s@." e)
       | None -> ());
      (* The single-instance retry mirrors the batch runner: a failing or
         invalid run re-attempts under a relaxed config. Each attempt runs
         on a fresh workspace, so the escape part times it keeps are the
         returned run's alone. *)
      let workspace = ref (Pacor_route.Workspace.create ()) in
      let rec attempt config tries_left =
        workspace := Pacor_route.Workspace.create ();
        match Pacor.Engine.run ~config ~workspace:!workspace problem with
        | Error e when tries_left > 0 ->
          Format.eprintf "retrying after engine failure at %s: %s@." e.stage e.message;
          attempt (Pacor.Config.relax config) (tries_left - 1)
        | Error e -> Error e
        | Ok sol ->
          (match Pacor.Solution.validate sol with
           | Error _ when tries_left > 0 ->
             Format.eprintf "retrying after validation failure (%a)@."
               Pacor.Solution.pp_outcomes sol;
             attempt (Pacor.Config.relax config) (tries_left - 1)
           | _ -> Ok sol)
      in
      let config =
        { (Pacor.Config.make ~variant ()) with Pacor.Config.verbose; limits }
      in
      (match attempt config retries with
       | Error e -> fail exit_engine "engine failed at %s: %s" e.stage e.message
       | Ok sol when json ->
         (* One line, same schema as the daemon's route result, so scripts
            can switch between one-shot and served routing untouched. *)
         print_endline
           (Pacor_serve.Json.to_string (Pacor_serve.Protocol.solution_result sol));
         (match Pacor.Solution.validate sol with
          | Ok () -> 0
          | Error _ -> fail exit_violation "solution failed validation")
       | Ok sol ->
         Format.printf "%a@." Pacor.Problem.pp_summary problem;
         Format.printf "%s: %a@."
           (Pacor.Config.variant_name variant)
           Pacor.Solution.pp_stats (Pacor.Solution.stats sol);
         if Pacor.Solution.degraded sol then
           Format.printf "budget: %a@." Pacor.Solution.pp_outcomes sol;
         if verbose then begin
           List.iter
             (fun (stage, seconds) -> Format.printf "  stage %-14s %.3fs@." stage seconds)
             sol.Pacor.Solution.stage_seconds;
           let ms k = 1000. *. (Pacor_route.Workspace.escape_parts !workspace).(k) in
           Format.printf "  escape parts roles=%.2fms seed=%.2fms rounds=%.2fms decompose=%.2fms@."
             (ms 0) (ms 1) (ms 2) (ms 3);
           Pacor.Report.print_search_stats Format.std_formatter sol;
           let bytes = Pacor_route.Workspace.bytes !workspace in
           Format.printf "workspace bytes=%d per_cell=%.1f@." bytes
             (float_of_int bytes
              /. float_of_int (Pacor_grid.Routing_grid.cells problem.Pacor.Problem.grid))
         end;
         if render then Format.printf "%s@." (Pacor.Render.solution sol);
         if skew then
           Format.printf "%a" Pacor_timing.Skew.pp (Pacor_timing.Skew.analyze sol);
         (match svg with
          | Some path ->
            (match Pacor.Svg.save_solution sol ~path with
             | Ok () -> Format.printf "svg written to %s@." path
             | Error e -> Format.eprintf "svg failed: %s@." e)
          | None -> ());
         (match Pacor.Solution.validate sol with
          | Ok () ->
            Format.printf "validation: OK@.";
            0
          | Error es ->
            List.iter (Format.printf "validation: %s@.") es;
            fail exit_violation "solution failed validation"))
  in
  let info =
    Cmd.info "route" ~doc:"Run the PACOR control-layer routing flow on one instance."
  in
  Cmd.v info
    Term.(const run $ design $ file $ variant $ verbose $ render $ skew $ save $ svg
          $ json $ limits_term $ retries_arg)

(* ---- designs (Table 1) ---- *)

let designs_cmd =
  let emit =
    Arg.(value & opt (some string) None & info [ "emit" ] ~docv:"NAME"
           ~doc:"Print the canonical instance text of built-in design $(docv) \
                 to stdout (feed it to --file or the daemon's route op) \
                 instead of the parameter table. Besides the Table 1 set, \
                 the synthetic scaling family $(b,Scaled1)..$(b,Scaled8) \
                 (Chip1-like content on a 168s-square grid) and the FPVA lattice \
                 $(b,fpva20-p8) are available.")
  in
  let run emit =
    match emit with
    | Some name -> (
      match load_design name with
      | Error msg -> fail exit_parse "%s" msg
      | Ok problem ->
        print_string (Pacor.Problem_io.to_string problem);
        0)
    | None ->
      Format.printf "%-7s %-9s %8s %8s %8s %10s@." "Design" "Size" "#Valves" "#CP" "#Obs"
        "#Clusters";
      List.iter
        (fun (r : Pacor_designs.Table1.row) ->
           Format.printf "%-7s %dx%-6d %8d %8d %8d %10d@." r.design r.width r.height
             r.valves r.control_pins r.obstacles r.multi_clusters)
        Pacor_designs.Table1.rows;
      List.iter
        (fun s ->
           let sp = Pacor_designs.Scaled.spec s in
           Format.printf "%-7s %dx%-6d %8d %8d %8d %10d@."
             (Pacor_designs.Scaled.name s) sp.Pacor_designs.Synthetic.width
             sp.Pacor_designs.Synthetic.height
             (sp.Pacor_designs.Synthetic.singleton_valves
              + List.fold_left ( + ) 0 sp.Pacor_designs.Synthetic.lm_cluster_sizes)
             sp.Pacor_designs.Synthetic.pin_count
             sp.Pacor_designs.Synthetic.obstacle_cells
             (List.length sp.Pacor_designs.Synthetic.lm_cluster_sizes))
        Pacor_designs.Scaled.scales;
      0
  in
  let info =
    Cmd.info "designs"
      ~doc:"Print the benchmark parameters (paper Table 1), or with $(b,--emit) \
            the canonical instance text of one design."
  in
  Cmd.v info Term.(const run $ emit)

(* ---- table2 ---- *)

let table2_cmd =
  let designs_arg =
    Arg.(value & opt (list string) Pacor_designs.Table1.names
         & info [ "designs" ] ~docv:"NAMES"
             ~doc:"Comma-separated design names (default: all seven).")
  in
  let run names jobs limits retries =
    match
      Pacor_designs.Harness.measure_table2
        ~progress:(fun n -> Format.eprintf "measured %s@." n)
        ~jobs ~limits ~retries names
    with
    | Error msg -> fail exit_violation "%s" msg
    | Ok rows ->
      Format.printf "Measured (this machine, synthetic stand-ins):@.";
      Pacor.Report.print_table Format.std_formatter rows;
      Format.printf "@.Paper Table 2 (published numbers, authors' testbed):@.";
      let paper =
        List.filter
          (fun r -> List.exists (fun m -> m.Pacor.Report.design = r.Pacor.Report.design) rows)
          Pacor.Report.paper_table2
      in
      Pacor.Report.print_table Format.std_formatter paper;
      Format.printf "@.Shape checks (Sec. 7 qualitative claims on measured data):@.";
      List.iter
        (fun (name, ok) -> Format.printf "  [%s] %s@." (if ok then "PASS" else "FAIL") name)
        (Pacor.Report.shape_checks ~measured:rows);
      0
  in
  let info =
    Cmd.info "table2"
      ~doc:"Regenerate the paper's Table 2 self-comparison on the benchmark designs."
  in
  Cmd.v info Term.(const run $ designs_arg $ jobs_arg $ limits_term $ retries_arg)

(* ---- fig3 ---- *)

let fig3_cmd =
  let run () =
    let open Pacor_geom in
    let grid = Pacor_grid.Routing_grid.create ~width:16 ~height:14 () in
    let sinks = [ Point.make 2 2; Point.make 2 10; Point.make 12 3; Point.make 13 11 ] in
    let cands =
      Pacor_dme.Candidate.enumerate ~grid ~usable:(fun _ -> true) ~max_candidates:4 sinks
    in
    Format.printf
      "Candidate Steiner trees for a 4-valve cluster (cf. Fig. 3).@.Sinks: %a@.@."
      (Format.pp_print_list ~pp_sep:Format.pp_print_space Point.pp)
      sinks;
    List.iteri
      (fun i (c : Pacor_dme.Candidate.t) ->
         Format.printf "-- candidate %d: %a@." (i + 1) Pacor_dme.Candidate.pp c;
         Format.printf "   full path lengths:";
         Array.iter (fun l -> Format.printf " %d" l) c.full_path_lengths;
         Format.printf "@.";
         (* ASCII render: S = sink, * = merging node, R = root. *)
         let is_sink p = List.exists (Point.equal p) sinks in
         let nodes =
           List.filter_map
             (fun (n : Pacor_dme.Candidate.node) ->
                if n.sink = None then Some n.pos else None)
             c.nodes
         in
         for y = 13 downto 0 do
           Format.printf "   ";
           for x = 0 to 15 do
             let p = Point.make x y in
             if is_sink p then Format.print_char 'S'
             else if Point.equal p c.root then Format.print_char 'R'
             else if List.exists (Point.equal p) nodes then Format.print_char '*'
             else Format.print_char '.'
           done;
           Format.printf "@."
         done;
         Format.printf "@.")
      cands;
    0
  in
  let info =
    Cmd.info "fig3"
      ~doc:"Print several DME candidate Steiner trees for one cluster (paper Fig. 3)."
  in
  Cmd.v info Term.(const run $ const ())

(* ---- sweep ---- *)

let sweep_cmd =
  let design =
    Arg.(required & opt (some string) None & info [ "design"; "d" ] ~docv:"NAME"
           ~doc:"Design to sweep (Chip1, Chip2, S1..S5).")
  in
  let max_delta =
    Arg.(value & opt int 4 & info [ "max-delta" ] ~docv:"N"
           ~doc:"Sweep delta over 0..N (default 4).")
  in
  let run name max_delta jobs limits retries =
    let deltas = List.init (max_delta + 1) Fun.id in
    match Pacor_designs.Sweep.run_design ~jobs ~limits ~retries ~deltas name with
    | Error msg -> fail exit_violation "%s" msg
    | Ok samples ->
      Format.printf "delta sweep on %s (PACOR variant):@." name;
      Pacor_designs.Sweep.pp_table Format.std_formatter samples;
      0
  in
  let info =
    Cmd.info "sweep"
      ~doc:"Sweep the length-matching threshold delta and report matched clusters."
  in
  Cmd.v info Term.(const run $ design $ max_delta $ jobs_arg $ limits_term $ retries_arg)

(* ---- batch: route every instance file in a directory on a domain pool ---- *)

let batch_cmd =
  let dir =
    Arg.(required & pos 0 (some dir) None & info [] ~docv:"DIR"
           ~doc:"Directory of *.chip instance files (e.g. corpus/).")
  in
  let variant =
    Arg.(value & opt variant_conv Pacor.Config.Full & info [ "variant"; "v" ]
           ~docv:"VARIANT" ~doc:"Flow variant: full, wosel or detour-first.")
  in
  let run dir variant jobs limits retries =
    match Pacor_par.Batch.load_dir dir with
    | Error msg -> fail exit_parse "%s" msg
    | Ok named ->
      let config =
        { (Pacor.Config.make ~variant ()) with Pacor.Config.limits = limits }
      in
      let summary = Pacor_par.Batch.run_problems ~jobs ~retries ~config named in
      Format.printf "%a" Pacor_par.Batch.pp_summary summary;
      (* Healthy jobs all completed: the exit code reflects the worst
         quarantined failure — engine errors outrank validation/budget
         failures. *)
      (match summary.Pacor_par.Batch.quarantined with
       | [] ->
         Format.printf "validation: OK (%d instances)@."
           (List.length summary.Pacor_par.Batch.items);
         0
       | q ->
         let engine_failures =
           List.filter
             (fun (i : Pacor_par.Batch.item) ->
                match i.solution with
                | Error (Pacor_par.Batch.Engine_error _ | Pacor_par.Batch.Crashed _) ->
                  true
                | Error (Pacor_par.Batch.Budget_exhausted _ | Pacor_par.Batch.Invalid _)
                | Ok _ -> false)
             q
         in
         if engine_failures <> [] then
           fail exit_engine "batch: %d job(s) failed in the engine" (List.length engine_failures)
         else
           fail exit_violation "batch: %d job(s) quarantined" (List.length q))
  in
  let info =
    Cmd.info "batch"
      ~doc:"Route every instance in a directory across a pool of worker domains; \
            failing instances are retried, then quarantined, without aborting the \
            healthy ones."
  in
  Cmd.v info
    Term.(const run $ dir $ variant $ jobs_arg $ limits_term $ retries_arg)

(* ---- repair: route, inject faults, re-route only around them ---- *)

let repair_cmd =
  let design =
    Arg.(value & opt (some string) None & info [ "design"; "d" ] ~docv:"NAME"
           ~doc:"A built-in Table 1 design to route and then repair.")
  in
  let file =
    Arg.(value & opt (some string) None & info [ "file"; "f" ] ~docv:"PATH"
           ~doc:"An instance file to route and then repair.")
  in
  let faults =
    Arg.(required & opt (some string) None & info [ "faults" ] ~docv:"SPEC"
           ~doc:"Fault specification: comma-separated directives among \
                 $(b,rate=F) (random fault rate), $(b,seed=N), \
                 $(b,stuck=ID), $(b,stuck-open=ID), $(b,cell=X:Y) and \
                 $(b,leak=X:Y-X:Y), e.g. \
                 $(b,rate=0.05,seed=42,stuck=3,cell=10:4).")
  in
  let verbose =
    Arg.(value & flag & info [ "verbose" ] ~doc:"Print one report line per fault.")
  in
  let run design file faults verbose limits =
    match load_problem ~design ~file with
    | Error msg -> fail exit_parse "%s" msg
    | Ok problem ->
      (match Pacor_fault.Fault.parse_spec faults with
       | Error msg -> fail exit_parse "bad --faults spec: %s" msg
       | Ok spec ->
         let config = { (Pacor.Config.make ()) with Pacor.Config.limits } in
         (match Pacor.Engine.run ~config problem with
          | Error e -> fail exit_engine "engine failed at %s: %s" e.stage e.message
          | Ok sol ->
            Format.printf "%a@." Pacor.Problem.pp_summary problem;
            Format.printf "baseline: %a@."
              Pacor.Solution.pp_stats (Pacor.Solution.stats sol);
            let fault_list = Pacor_fault.Fault.realise spec sol in
            if fault_list = [] then begin
              Format.printf "no faults injected (empty spec); nothing to repair@.";
              0
            end
            else begin
              Format.printf "injected %d fault(s)@." (List.length fault_list);
              match
                Pacor_fault.Repair.run ~limits ~faults:fault_list sol
              with
              | Error msg -> fail exit_engine "repair failed: %s" msg
              | Ok rep ->
                if verbose then
                  List.iter
                    (Format.printf "  %a@." Pacor_fault.Repair.pp_report)
                    rep.Pacor_fault.Repair.reports;
                Format.printf "%a@." Pacor_fault.Repair.pp_summary rep;
                Format.printf "repaired: %a@."
                  Pacor.Solution.pp_stats
                  (Pacor.Solution.stats rep.Pacor_fault.Repair.solution);
                let unrepairable =
                  List.exists
                    (fun (r : Pacor_fault.Repair.report) ->
                       match r.outcome with
                       | Pacor_fault.Repair.Unrepairable _ -> true
                       | Pacor_fault.Repair.Repaired
                       | Pacor_fault.Repair.Degraded _ -> false)
                    rep.Pacor_fault.Repair.reports
                in
                (match
                   Pacor.Solution.validate rep.Pacor_fault.Repair.solution
                 with
                 | Ok () when not unrepairable ->
                   Format.printf "validation: OK@.";
                   0
                 | Ok () ->
                   Format.printf "validation: OK@.";
                   fail exit_violation "%d valve(s) quarantined as unrepairable"
                     (List.length rep.Pacor_fault.Repair.quarantined)
                 | Error es ->
                   List.iter (Format.printf "validation: %s@.") es;
                   fail exit_violation "repaired solution failed validation")
            end))
  in
  let info =
    Cmd.info "repair"
      ~doc:"Route an instance, inject post-fabrication faults (stuck valves, \
            blocked cells, leaky segments), and repair online: rip up only \
            the clusters the faults touch and re-route them around the \
            fault, reusing every untouched channel byte-identically. Exit \
            codes: 1 unrepairable fault or validation failure, 2 parse/spec \
            error, 3 engine error."
  in
  Cmd.v info
    Term.(const run $ design $ file $ faults $ verbose $ limits_term)

(* ---- serve: the routing daemon ---- *)

let serve_cmd =
  let port =
    Arg.(value & opt (some int) None & info [ "port"; "p" ] ~docv:"PORT"
           ~doc:"Also listen for connections on 127.0.0.1:$(docv) (0 picks an \
                 ephemeral port, announced on stderr).")
  in
  let no_stdio =
    Arg.(value & flag & info [ "no-stdio" ]
           ~doc:"Do not serve on stdin/stdout (TCP only; requires $(b,--port)).")
  in
  let stdio =
    Arg.(value & flag & info [ "stdio" ]
           ~doc:"Serve line-delimited JSON on stdin/stdout (the default; this flag \
                 exists so spawning clients can be explicit).")
  in
  let cache =
    Arg.(value & opt pos_int_conv 64 & info [ "cache" ] ~docv:"N"
           ~doc:"Solution cache capacity in problems (LRU, keyed by canonical \
                 problem fingerprint; default 64).")
  in
  let journal =
    Arg.(value & opt (some string) None & info [ "journal" ] ~docv:"PATH"
           ~doc:"Append every session mutation to $(docv) (fsync'd before the \
                 response is sent) and replay surviving sessions from it at \
                 startup, so a killed daemon resumes where it left off.")
  in
  let supervise =
    Arg.(value & flag & info [ "supervise" ]
           ~doc:"Run the daemon under a watchdog: the serving worker is forked, \
                 and an abnormal exit (crash, kill -9, OOM) restarts it with \
                 jittered exponential backoff. Combine with $(b,--journal) so \
                 restarts recover their sessions. A TCP port is bound once, \
                 before the first fork, so restarts never drop the listener.")
  in
  let pidfile =
    Arg.(value & opt (some string) None & info [ "pidfile" ] ~docv:"PATH"
           ~doc:"With $(b,--supervise): write the current worker's pid to \
                 $(docv) after every fork (how chaos tests aim their kills).")
  in
  let max_conns =
    Arg.(value & opt pos_int_conv Pacor_serve.Server.default_max_conns
         & info [ "max-conns" ] ~docv:"N"
             ~doc:"Reject connections beyond $(docv) simultaneous ones with a \
                   single busy error line (default 64).")
  in
  let max_line =
    Arg.(value & opt pos_int_conv Pacor_serve.Linebuf.default_max_line
         & info [ "max-line" ] ~docv:"BYTES"
             ~doc:"Answer request lines over $(docv) bytes with one parse \
                   error and discard them without buffering (default 4MiB).")
  in
  let idle_timeout =
    Arg.(value & opt (some float) None & info [ "idle-timeout" ] ~docv:"SECONDS"
           ~doc:"Reap connections idle longer than $(docv) seconds \
                 (default 600).")
  in
  let run port no_stdio _stdio cache journal_path supervise pidfile max_conns
      max_line idle_timeout limits =
    if no_stdio && port = None then fail exit_parse "--no-stdio requires --port"
    else begin
      let stdio = not no_stdio in
      let worker ?listen_fd () =
        let journal =
          match journal_path with
          | None -> None
          | Some path -> (
            match Pacor_serve.Journal.open_ ~path with
            | Ok j -> Some j
            | Error e ->
              Printf.eprintf "pacor-serve: cannot open journal %s: %s\n%!" path e;
              Stdlib.exit exit_parse)
        in
        let t =
          Pacor_serve.Server.create ~cache_capacity:cache ~limits ?journal ()
        in
        let recovered = Pacor_serve.Server.recover t in
        if recovered > 0 then
          Printf.eprintf "pacor-serve: recovered %d session(s) from journal\n%!"
            recovered;
        (match listen_fd with
         | Some _ ->
           Pacor_serve.Server.serve_loop ~stdio ?listen_fd ~max_conns ~max_line
             ?idle_timeout_s:idle_timeout t
         | None ->
           Pacor_serve.Server.serve_loop ~stdio ?port ~max_conns ~max_line
             ?idle_timeout_s:idle_timeout t);
        Option.iter Pacor_serve.Journal.close journal;
        0
      in
      if not supervise then worker ()
      else begin
        (* Bind before the first fork: every restarted worker inherits the
           same listening socket, so clients reconnecting mid-restart queue
           in the kernel backlog instead of getting connection-refused. *)
        let listen_fd =
          Option.map (fun p -> fst (Pacor_serve.Server.listen ~port:p)) port
        in
        let outcome =
          Pacor_serve.Supervise.run ?pidfile (fun () -> worker ?listen_fd ())
        in
        if outcome.Pacor_serve.Supervise.gave_up then
          fail exit_engine "supervisor gave up after %d restart(s)"
            outcome.Pacor_serve.Supervise.restarts
        else 0
      end
    end
  in
  let info =
    Cmd.info "serve"
      ~doc:"Run the routing daemon: line-delimited JSON requests on stdin/stdout \
            and/or a local TCP port. Sessions hold a parsed problem and its routed \
            solution; delta requests (move_valve, add_obstacle, remove_obstacle, \
            set_delta, inject_fault) re-route only the clusters the edit dirties. \
            Identical route requests are answered byte-identically from an LRU \
            cache. $(b,--journal) makes sessions survive a crash; \
            $(b,--supervise) restarts a crashed worker automatically. See \
            lib/serve/protocol.mli for the request/response schema."
  in
  Cmd.v info
    Term.(const run $ port $ no_stdio $ stdio $ cache $ journal $ supervise
          $ pidfile $ max_conns $ max_line $ idle_timeout $ limits_term)

(* ---- client: drive a daemon from scripts ---- *)

let client_cmd =
  let connect =
    Arg.(value & opt (some string) None & info [ "connect" ] ~docv:"HOST:PORT"
           ~doc:"Connect to a daemon listening on $(docv). Without this flag a \
                 private daemon is spawned over pipes and shut down at EOF.")
  in
  let check =
    Arg.(value & flag & info [ "check" ]
           ~doc:"Exit 1 if any response carries ok:false (default: exit 0 as long \
                 as the daemon answered every request).")
  in
  let deadline =
    Arg.(value & opt (some float) None & info [ "deadline" ] ~docv:"SECONDS"
           ~doc:"Give up on a request if no response arrives within $(docv) \
                 seconds (default: wait forever). A deadline expiry is not \
                 retried — the daemon may still be computing.")
  in
  let retries =
    Arg.(value & opt int 3 & info [ "retries" ] ~docv:"N"
           ~doc:"On connection loss, reconnect and re-send (marked retry:true \
                 so the daemon replays instead of re-executing) up to $(docv) \
                 times under jittered exponential backoff (default 3; 0 fails \
                 fast).")
  in
  let backoff =
    Arg.(value & opt float 0.05 & info [ "backoff" ] ~docv:"SECONDS"
           ~doc:"Base of the doubling backoff between retries (default 0.05, \
                 capped at 2s).")
  in
  let run connect check deadline_s retries backoff_s =
    let conn =
      match connect with
      | None ->
        Pacor_serve.Client.spawn ?deadline_s ~retries ~backoff_s ()
      | Some hp -> (
        match String.rindex_opt hp ':' with
        | None -> Error (Printf.sprintf "expected HOST:PORT, got %S" hp)
        | Some i -> (
          let host = String.sub hp 0 i in
          match int_of_string_opt (String.sub hp (i + 1) (String.length hp - i - 1)) with
          | None -> Error (Printf.sprintf "bad port in %S" hp)
          | Some port ->
            Pacor_serve.Client.connect ?deadline_s ~retries ~backoff_s ~host ~port ()))
    in
    match conn with
    | Error e -> fail exit_parse "%s" e
    | Ok conn ->
      let not_ok = ref 0 in
      let transport_error = ref None in
      (try
         while true do
           let line = input_line stdin in
           if String.trim line <> "" then begin
             match Pacor_serve.Client.request conn line with
             | Error e ->
               transport_error := Some e;
               raise Exit
             | Ok resp ->
               print_endline resp;
               (match Pacor_serve.Json.of_string resp with
                | Ok j
                  when Option.bind (Pacor_serve.Json.member "ok" j)
                         Pacor_serve.Json.bool_opt
                       = Some true -> ()
                | _ -> incr not_ok)
           end
         done
       with End_of_file | Exit -> ());
      Pacor_serve.Client.close conn;
      (match !transport_error with
       | Some e -> fail exit_engine "daemon connection failed: %s" e
       | None -> if check && !not_ok > 0 then 1 else 0)
  in
  let info =
    Cmd.info "client"
      ~doc:"Send request lines from stdin to a routing daemon and print each \
            response line to stdout. Spawns a private daemon by default; use \
            $(b,--connect) to talk to a running one. Exit codes: 0 every request \
            answered (add $(b,--check) to require ok:true too), 2 bad arguments, \
            3 the daemon connection failed."
  in
  Cmd.v info Term.(const run $ connect $ check $ deadline $ retries $ backoff)

(* ---- check: pre-flight analysis, then route + validate ---- *)

let check_cmd =
  let design =
    Arg.(value & opt (some string) None & info [ "design"; "d" ] ~docv:"NAME"
           ~doc:"A built-in design.")
  in
  let file =
    Arg.(value & opt (some string) None & info [ "file"; "f" ] ~docv:"PATH"
           ~doc:"An instance file.")
  in
  let variant =
    Arg.(value & opt variant_conv Pacor.Config.Full & info [ "variant"; "v" ]
           ~docv:"VARIANT" ~doc:"Flow variant: full, wosel or detour-first.")
  in
  let static_only =
    Arg.(value & flag & info [ "static-only" ]
           ~doc:"Stop after the pre-flight analysis; do not route.")
  in
  let run design file variant static_only limits =
    match load_problem ~design ~file with
    | Error msg -> fail exit_parse "%s" msg
    | Ok problem ->
      Format.printf "%a@." Pacor.Problem.pp_summary problem;
      let graph = Pacor_valve.Compatibility_graph.build problem.Pacor.Problem.valves in
      Format.printf "compatibility: %a@." Pacor_valve.Compatibility_graph.pp_summary graph;
      let lower, upper = Pacor_valve.Compatibility_graph.pin_bounds graph in
      if upper > Pacor.Problem.pin_count problem then
        Format.printf
          "WARNING: greedy clustering needs %d pins but only %d candidates exist@."
          upper (Pacor.Problem.pin_count problem)
      else
        Format.printf "pin budget OK: need between %d and %d of %d candidate pins@."
          lower upper (Pacor.Problem.pin_count problem);
      List.iter
        (fun (c : Pacor_valve.Cluster.t) ->
           Format.printf "  %a@." Pacor_valve.Cluster.pp c)
        problem.Pacor.Problem.lm_clusters;
      if static_only then 0
      else begin
        (* Route and hold the result to the independent validator — the
           check fails (exit 1) on any design-rule violation and exit 3
           on a structural engine failure, naming the failing stage. *)
        let config =
          { (Pacor.Config.make ~variant ()) with Pacor.Config.limits = limits }
        in
        match Pacor.Engine.run ~config problem with
        | Error e -> fail exit_engine "engine failed at stage %s: %s" e.stage e.message
        | Ok sol ->
          Format.printf "%s: %a@."
            (Pacor.Config.variant_name variant)
            Pacor.Solution.pp_stats (Pacor.Solution.stats sol);
          if Pacor.Solution.degraded sol then
            Format.printf "budget: %a@." Pacor.Solution.pp_outcomes sol;
          (match Pacor.Solution.validate sol with
           | Ok () ->
             Format.printf "validation: OK@.";
             0
           | Error es ->
             List.iter (Format.printf "validation: %s@.") es;
             fail exit_violation "solution failed validation")
      end
  in
  let info =
    Cmd.info "check"
      ~doc:"Pre-flight compatibility/pin-budget analysis, then route the instance \
            and run the independent solution validator. Exit codes: 1 validation \
            violation, 2 parse/load error, 3 engine error."
  in
  Cmd.v info
    Term.(const run $ design $ file $ variant $ static_only $ limits_term)

let () =
  let info =
    Cmd.info "pacor" ~version:"1.0.0"
      ~doc:"Control-layer routing with length-matching for flow-based biochips (PACOR)."
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [ route_cmd; designs_cmd; table2_cmd; fig3_cmd; sweep_cmd; batch_cmd;
            check_cmd; repair_cmd; serve_cmd; client_cmd ]))
