open Pacor_designs

type sample = {
  label : string;
  grid_cells : int;
  valves : int;
  clusters : int;
  matched : int;
  total_length : int;
  completion : float;
  runtime_s : float;
  stage_seconds : (string * float) list;
}

let family ?(steps = 4) () =
  List.init steps (fun i ->
    (* Double the area each step: side grows by sqrt(2). *)
    let side = int_of_float (24.0 *. (Float.sqrt 2.0 ** float_of_int i)) in
    let pairs = 2 + i and triples = 1 + (i / 2) in
    let singles = 3 + i in
    {
      Synthetic.name = Printf.sprintf "scale-%dx%d" side side;
      width = side;
      height = side;
      obstacle_cells = side * side / 64;
      lm_cluster_sizes =
        List.init pairs (fun _ -> 2) @ List.init triples (fun _ -> 3);
      singleton_valves = singles;
      pin_count = min (2 * ((2 * side) - 2)) (4 * (pairs + triples + singles));
      seed = Int64.of_int (1000 + i);
      delta = 1;
    })

let measure specs =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | spec :: rest ->
      (match Synthetic.generate spec with
       | Error _ as e -> e
       | Ok problem ->
         (match Pacor.Engine.run problem with
          | Error e -> Error (Printf.sprintf "%s: %s" spec.Synthetic.name e.message)
          | Ok sol ->
            let stats = Pacor.Solution.stats sol in
            let sample =
              {
                label = spec.Synthetic.name;
                grid_cells = spec.Synthetic.width * spec.Synthetic.height;
                valves = Pacor.Problem.valve_count problem;
                clusters = stats.clusters;
                matched = stats.matched_clusters;
                total_length = stats.total_length;
                completion = stats.completion;
                runtime_s = stats.runtime_s;
                stage_seconds = sol.Pacor.Solution.stage_seconds;
              }
            in
            go (sample :: acc) rest))
  in
  go [] specs

let pp_table ppf samples =
  Format.fprintf ppf "%-14s %9s %7s %9s %8s %11s %9s@." "design" "cells" "valves"
    "matched" "length" "completion" "runtime";
  List.iter
    (fun s ->
       Format.fprintf ppf "%-14s %9d %7d %5d/%-3d %8d %10.0f%% %8.2fs@." s.label
         s.grid_cells s.valves s.matched s.clusters s.total_length
         (100.0 *. s.completion) s.runtime_s)
    samples
