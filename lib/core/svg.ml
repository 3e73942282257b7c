open Pacor_geom
open Pacor_grid
open Pacor_valve

let cell = 12 (* pixels per grid cell *)

let palette =
  [| "#4e79a7"; "#f28e2b"; "#59a14f"; "#e15759"; "#76b7b2"; "#edc948";
     "#b07aa1"; "#ff9da7"; "#9c755f"; "#bab0ac" |]

let buffer_add_header buf ~width ~height =
  Printf.bprintf buf
    {|<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">|}
    (width * cell) (height * cell) (width * cell) (height * cell);
  Buffer.add_char buf '\n';
  Printf.bprintf buf
    {|<rect width="%d" height="%d" fill="#fcfcf8" stroke="#333" stroke-width="1"/>|}
    (width * cell) (height * cell);
  Buffer.add_char buf '\n'

(* Grid y grows upward; SVG y grows downward. *)
let px ~height (p : Point.t) = (p.x * cell, (height - 1 - p.y) * cell)

let add_cell buf ~height ?(inset = 0) ~fill (p : Point.t) =
  let x, y = px ~height p in
  Printf.bprintf buf {|<rect x="%d" y="%d" width="%d" height="%d" fill="%s"/>|}
    (x + inset) (y + inset) (cell - (2 * inset)) (cell - (2 * inset)) fill;
  Buffer.add_char buf '\n'

let add_path buf ~height ~colour ?(dashed = false) path =
  let pts =
    Path.points path
    |> List.map (fun p ->
      let x, y = px ~height p in
      Printf.sprintf "%d,%d" (x + (cell / 2)) (y + (cell / 2)))
    |> String.concat " "
  in
  Printf.bprintf buf
    {|<polyline points="%s" fill="none" stroke="%s" stroke-width="%d"%s stroke-linecap="round" stroke-linejoin="round"/>|}
    pts colour (cell / 3)
    (if dashed then {| stroke-dasharray="6,4"|} else "");
  Buffer.add_char buf '\n'

let add_base buf (p : Problem.t) =
  let height = Routing_grid.height p.grid in
  Obstacle_map.iter_blocked (Routing_grid.obstacles p.grid) (fun pt ->
    add_cell buf ~height ~fill:"#555" pt);
  List.iter (fun pin -> add_cell buf ~height ~inset:2 ~fill:"#cccccc" pin) p.pins

let add_valves buf (p : Problem.t) =
  let height = Routing_grid.height p.grid in
  List.iter
    (fun (v : Valve.t) ->
       let x, y = px ~height v.position in
       Printf.bprintf buf
         {|<circle cx="%d" cy="%d" r="%d" fill="#222" stroke="#fff" stroke-width="1"/>|}
         (x + (cell / 2)) (y + (cell / 2)) (cell / 3);
       Buffer.add_char buf '\n')
    p.valves

let solution (s : Solution.t) =
  let p = s.problem in
  let height = Routing_grid.height p.grid in
  let buf = Buffer.create 8192 in
  buffer_add_header buf ~width:(Routing_grid.width p.grid) ~height;
  add_base buf p;
  List.iteri
    (fun i (rc : Solution.routed_cluster) ->
       let colour = palette.(i mod Array.length palette) in
       List.iter
         (fun path -> if not (Path.is_trivial path) then add_path buf ~height ~colour path)
         rc.routed.Routed.paths;
       match rc.escape with
       | Some e ->
         add_path buf ~height ~colour ~dashed:true e.Pacor_flow.Escape.path;
         add_cell buf ~height ~inset:2 ~fill:colour e.Pacor_flow.Escape.pin
       | None -> ())
    s.clusters;
  add_valves buf p;
  Buffer.add_string buf "</svg>\n";
  Buffer.contents buf

let save_solution s ~path =
  try
    let oc = open_out path in
    output_string oc (solution s);
    close_out oc;
    Ok ()
  with Sys_error e -> Error e
