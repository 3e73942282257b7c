(* Chip1-like synthetic family parameterised by a linear scale factor: the
   large-grid workload of the scaling study and of the benchmark's Scaled3
   route. Content (clusters, valves, pins, obstacles) grows
   linearly with the scale while the area grows quadratically, which is
   how real chips grow — routing becomes sparser, and a flat search pays
   ever more for exploring area the connections never needed. *)

let max_scale = 8

let name s = Printf.sprintf "Scaled%d" s

let of_name n =
  let prefix = "Scaled" in
  let pl = String.length prefix in
  if String.length n > pl && String.sub n 0 pl = prefix then
    match int_of_string_opt (String.sub n pl (String.length n - pl)) with
    | Some s when s >= 1 && s <= max_scale -> Some s
    | _ -> None
  else None

let scales = List.init max_scale (fun i -> i + 1)

let spec s =
  if s < 1 || s > max_scale then invalid_arg "Scaled.spec: scale out of range";
  let side = 168 * s in
  {
    (* Chip1's mix shrunk to a per-scale unit: pairs, triples, quads in
       ratio 4:2:1, singletons alongside — [s = 6] crosses 1000x1000
       cells with 156 valves in 42 multi-valve clusters. *)
    Synthetic.name = name s;
    width = side;
    height = side;
    obstacle_cells = 40 * s;
    lm_cluster_sizes =
      List.concat
        [ List.init (4 * s) (fun _ -> 2);
          List.init (2 * s) (fun _ -> 3);
          List.init s (fun _ -> 4) ];
    singleton_valves = 8 * s;
    pin_count = 60 * s;
    seed = Int64.of_int (Hashtbl.hash ("pacor-scaled-" ^ string_of_int s) + 1);
    delta = 2;
  }

let load s = Synthetic.generate (spec s)
let load_exn s = Synthetic.generate_exn (spec s)
