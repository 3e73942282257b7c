open Pacor_geom
open Pacor_grid
open Pacor_valve

type gen = (Pacor.Problem.t, string) result QCheck.Gen.t

let synthetic : gen =
  QCheck.Gen.(
    let* seed = int_range 1 10_000 in
    let* pairs = int_range 0 2 and* triples = int_range 0 1 and* singles = int_range 1 3 in
    return
      (Pacor_designs.Synthetic.generate
         { Pacor_designs.Synthetic.name = "fuzz"; width = 22; height = 22; obstacle_cells = 30;
           lm_cluster_sizes = List.init pairs (fun _ -> 2) @ List.init triples (fun _ -> 3);
           singleton_valves = singles; pin_count = 14; seed = Int64.of_int seed; delta = 1 }))

let congested : gen =
  QCheck.Gen.(
    let size = 10 in
    let inner = int_range 1 (size - 2) in
    let* walls =
      list_repeat 9
        (let* x = inner and* y = inner and* len = int_range 0 3 and* vertical = bool in
         return
           (if vertical then Rect.make ~x0:x ~y0:y ~x1:x ~y1:(min (size - 2) (y + len))
            else Rect.make ~x0:x ~y0:y ~x1:(min (size - 2) (x + len)) ~y1:y))
    in
    let* cells = list_repeat 7 (pair inner inner) in
    let* seqs = list_repeat 7 (oneofl [ "01"; "01"; "10"; "0X"; "X1"; "11"; "00" ]) in
    let ring =
      List.init size (fun i -> [ Point.make i 0; Point.make i (size - 1) ])
      @ List.init (size - 2) (fun i -> [ Point.make 0 (i + 1); Point.make (size - 1) (i + 1) ])
      |> List.concat
    in
    (* About one boundary cell in four is a candidate pin. *)
    let* picks = list_repeat (List.length ring) (int_bound 3) in
    let grid = Routing_grid.create ~width:size ~height:size ~obstacles:walls () in
    let valves =
      List.sort_uniq (fun (a, _) (b, _) -> compare a b) (List.combine cells seqs)
      |> List.filter (fun ((x, y), _) -> Routing_grid.free grid (Point.make x y))
      |> List.mapi (fun id ((x, y), s) ->
        Valve.make ~id ~position:(Point.make x y)
          ~sequence:(Result.get_ok (Activation.sequence_of_string s)))
    in
    let pins =
      List.combine ring picks
      |> List.filter_map (fun (p, k) -> if k = 0 && Routing_grid.free grid p then Some p else None)
    in
    return (Pacor.Problem.create ~grid ~valves ~pins ()))

let trees : gen =
  QCheck.Gen.(
    let* seed = int_range 1 10_000 in
    let* triples = int_range 2 4 and* side = int_range 14 20
    and* obstacle_cells = int_range 0 30 and* singles = int_range 0 2
    and* delta = int_range 0 2 in
    return
      (Pacor_designs.Synthetic.generate
         { Pacor_designs.Synthetic.name = "trees"; width = side; height = side; obstacle_cells;
           lm_cluster_sizes = List.init triples (fun _ -> 3); singleton_valves = singles;
           pin_count = 12; seed = Int64.of_int seed; delta }))

let all = [ ("synthetic", synthetic); ("congested", congested); ("trees", trees) ]

let instance gen seed = QCheck.Gen.generate1 ~rand:(Random.State.make [| seed |]) gen
