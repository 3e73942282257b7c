open Pacor_geom

type id = int

type t = {
  id : id;
  position : Point.t;
  sequence : Activation.sequence;
}

let make ~id ~position ~sequence = { id; position; sequence }
let compatible a b = Activation.compatible a.sequence b.sequence

let pairwise_compatible valves =
  let rec go = function
    | [] -> true
    | v :: rest -> List.for_all (compatible v) rest && go rest
  in
  go valves

let equal a b = a.id = b.id
let compare a b = Int.compare a.id b.id
