(* Fuzz totals: for each instance of a family over a seed range, the
   engine's route (engine), repair of every cluster (repair-all), repair
   of a random subset (repair-subset) and the rate=0.1,seed=3 fault repair
   (fault-repair), summed per output.

     dune build test/fuzz/fuzz.exe
     ./_build/default/test/fuzz/fuzz.exe FAMILY FIRST LAST [--each]

   FAMILY is synthetic, congested or trees; --each also prints one line
   per instance and output, with its SVG digest. *)

type totals = {
  mutable runs : int;       (* outputs produced (an [Error] is not one) *)
  mutable errors : int;
  mutable valid : int;      (* passes Solution.validate *)
  mutable complete : int;   (* valid and every valve routed *)
  mutable matched : int;    (* matched length-matched clusters *)
  mutable quarantined : int;
  mutable length : int;
  mutable pops : int;
}

let outputs = [ "engine"; "repair-all"; "repair-subset"; "fault-repair" ]

let fresh () =
  { runs = 0; errors = 0; valid = 0; complete = 0; matched = 0; quarantined = 0; length = 0;
    pops = 0 }

let fault_spec = Result.get_ok (Pacor_fault.Fault.parse_spec "rate=0.1,seed=3")

let () =
  let family, first, last, each =
    match Array.to_list Sys.argv with
    | [ _; f; a; b ] -> (f, int_of_string a, int_of_string b, false)
    | [ _; f; a; b; "--each" ] -> (f, int_of_string a, int_of_string b, true)
    | _ ->
      prerr_endline "usage: fuzz FAMILY FIRST LAST [--each]";
      exit 2
  in
  let gen =
    match List.assoc_opt family Families.all with
    | Some g -> g
    | None ->
      prerr_endline ("unknown family " ^ family);
      exit 2
  in
  let table = List.map (fun o -> (o, fresh ())) outputs in
  let instances = ref 0 in
  for seed = first to last do
    match Families.instance gen seed with
    | Error _ -> ()
    | Ok problem ->
      incr instances;
      (* One run on a workspace with its own counters: its pops. *)
      let counted f =
        let stats = Pacor_route.Search_stats.create () in
        let result = f (Pacor_route.Workspace.create ~stats ()) in
        (result, (Pacor_route.Search_stats.snapshot stats).Pacor_route.Search_stats.pops)
      in
      let record name result =
        let t = List.assoc name table in
        match result with
        | Error _, _ ->
          t.errors <- t.errors + 1;
          if each then Printf.printf "%d %s error\n" seed name
        | Ok (sol, quarantined), pops ->
          let stats = Pacor.Solution.stats sol in
          let valid = Result.is_ok (Pacor.Solution.validate sol) in
          let complete = valid && stats.Pacor.Solution.completion >= 1.0 in
          t.runs <- t.runs + 1;
          if valid then t.valid <- t.valid + 1;
          if complete then t.complete <- t.complete + 1;
          t.matched <- t.matched + stats.Pacor.Solution.matched_clusters;
          t.quarantined <- t.quarantined + quarantined;
          t.length <- t.length + stats.Pacor.Solution.total_length;
          t.pops <- t.pops + pops;
          if each then
            Printf.printf "%d %s %s valid=%b complete=%b matched=%d quarantined=%d length=%d pops=%d\n"
              seed name
              (Digest.to_hex (Digest.string (Pacor.Svg.solution sol)))
              valid complete stats.Pacor.Solution.matched_clusters quarantined
              stats.Pacor.Solution.total_length pops
      in
      let engine, pops =
        counted (fun workspace -> Pacor.Engine.run ~workspace problem)
      in
      record "engine" (Result.map (fun sol -> (sol, 0)) engine |> Result.map_error ignore, pops);
      Result.iter
        (fun (sol : Pacor.Solution.t) ->
           let repaired (r : (Pacor_fault.Repair.t, string) result) =
             Result.map
               (fun (r : Pacor_fault.Repair.t) ->
                  (r.Pacor_fault.Repair.solution, List.length r.Pacor_fault.Repair.quarantined))
               r
             |> Result.map_error ignore
           in
           let reroute is_dirty =
             counted (fun workspace ->
               repaired (Pacor_fault.Repair.reroute ~workspace ~problem ~is_dirty sol))
           in
           record "repair-all" (reroute (fun _ -> true));
           let rng = Random.State.make [| seed |] in
           let picked =
             List.filter_map
               (fun (c : Pacor.Solution.routed_cluster) ->
                  if Random.State.bool rng then Some c.routed.Pacor.Routed.cluster else None)
               sol.Pacor.Solution.clusters
           in
           record "repair-subset"
             (reroute (fun c -> List.memq c.routed.Pacor.Routed.cluster picked));
           match Pacor_fault.Fault.realise fault_spec sol with
           | [] -> ()
           | faults ->
             record "fault-repair"
               (counted (fun workspace ->
                  repaired (Pacor_fault.Repair.run ~workspace ~faults sol))))
        engine
  done;
  Printf.printf "family=%s seeds=%d-%d instances=%d\n" family first last !instances;
  Printf.printf "%-13s %6s %6s %6s %8s %8s %11s %9s %11s\n" "output" "runs" "errors" "valid"
    "complete" "matched" "quarantined" "length" "pops";
  List.iter
    (fun (name, t) ->
       Printf.printf "%-13s %6d %6d %6d %8d %8d %11d %9d %11d\n" name t.runs t.errors t.valid
         t.complete t.matched t.quarantined t.length t.pops)
    table
