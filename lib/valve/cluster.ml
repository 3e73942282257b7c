type t = {
  id : int;
  valves : Valve.t list;
  length_matched : bool;
}

let rec distinct_sorted equal = function
  | [] | [ _ ] -> true
  | a :: (b :: _ as rest) -> (not (equal a b)) && distinct_sorted equal rest

let make ~id ~length_matched valves =
  match valves with
  | [] -> Error "cluster must contain at least one valve"
  | _ :: _ ->
    let sorted = List.sort Valve.compare valves in
    if not (distinct_sorted Valve.equal sorted) then Error "duplicate valve id in cluster"
    else begin
      let by_pos =
        List.sort (fun (a : Valve.t) b -> Pacor_geom.Point.compare a.position b.position) sorted
      in
      if
        not
          (distinct_sorted
             (fun (a : Valve.t) b -> Pacor_geom.Point.equal a.position b.position)
             by_pos)
      then Error "two valves share a position"
      else if not (Valve.pairwise_compatible sorted) then
        Error "cluster valves are not pairwise compatible"
      else Ok { id; valves = sorted; length_matched }
    end

let make_exn ~id ~length_matched valves =
  match make ~id ~length_matched valves with
  | Ok c -> c
  | Error msg -> invalid_arg ("Cluster.make: " ^ msg)

let size t = List.length t.valves
let valve_ids t = List.map (fun (v : Valve.t) -> v.id) t.valves
let positions t = List.map (fun (v : Valve.t) -> v.position) t.valves
let needs_matching t = t.length_matched && size t >= 2

let split t ~fresh_id =
  List.map
    (fun v -> { id = fresh_id (); valves = [ v ]; length_matched = false })
    t.valves

let fresh_ids ts =
  let next = ref (1 + List.fold_left (fun m t -> max m t.id) 0 ts) in
  fun () ->
    let id = !next in
    incr next;
    id

let pp ppf t =
  Format.fprintf ppf "cluster %d%s {%a}" t.id
    (if t.length_matched then " [LM]" else "")
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       (fun ppf (v : Valve.t) -> Format.fprintf ppf "v%d" v.id))
    t.valves
