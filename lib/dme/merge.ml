open Pacor_geom

type node = {
  topology : Topology.t;
  region : Tilted.t;
  sink_dist : int;
  children : (node * int) list;
}

let merge_children l r =
  let d = Tilted.dist l.region r.region in
  let dl = l.sink_dist and dr = r.sink_dist in
  if dl > dr + d then begin
    (* Right subtree needs a detoured edge; the node sits on [l.region]
       within reach of the right region. *)
    let eb = dl - dr in
    let region =
      match Tilted.inter l.region (Tilted.inflate r.region eb) with
      | Some t -> t
      | None -> assert false (* dist l r = d <= eb *)
    in
    (region, dl, [ (l, 0); (r, eb) ])
  end
  else if dr > dl + d then begin
    let ea = dr - dl in
    let region =
      match Tilted.inter (Tilted.inflate l.region ea) r.region with
      | Some t -> t
      | None -> assert false
    in
    (region, dr, [ (l, ea); (r, 0) ])
  end
  else begin
    (* Balanced merge: ea + eb = d exactly; integer floor introduces at
       most one doubled unit (= half a grid edge) of skew, absorbed by the
       final detour stage (the paper's rounding-error argument). *)
    let ea = (d + dr - dl) / 2 in
    let eb = d - ea in
    let region =
      match Tilted.inter (Tilted.inflate l.region ea) (Tilted.inflate r.region eb) with
      | Some t -> t
      | None -> assert false (* inflations meet since ea + eb = d *)
    in
    (region, Int.max (dl + ea) (dr + eb), [ (l, ea); (r, eb) ])
  end

let build ~sinks topology =
  let n = Array.length sinks in
  let rec go topo =
    match topo with
    | Topology.Leaf i ->
      if i < 0 || i >= n then invalid_arg "Merge.build: leaf index out of range";
      { topology = topo; region = Tilted.of_point sinks.(i); sink_dist = 0; children = [] }
    | Topology.Node (tl, tr) ->
      let l = go tl and r = go tr in
      let region, sink_dist, children = merge_children l r in
      { topology = topo; region; sink_dist; children }
  in
  go topology

let merging_regions root =
  let rec collect acc node =
    let acc = List.fold_left (fun a (c, _) -> collect a c) acc node.children in
    match node.children with
    | [] -> acc
    | _ :: _ -> (node.region, node.sink_dist) :: acc
  in
  List.rev (collect [] root)

let check_sink_distances root =
  (* Each level may lose one doubled unit to the floor in [merge_children]. *)
  let rec levels node =
    match node.children with
    | [] -> 1
    | cs -> 1 + List.fold_left (fun a (c, _) -> Int.max a (levels c)) 0 cs
  in
  let slack = levels root in
  let rec check node =
    let ok_here =
      match node.children with
      | [] -> node.sink_dist = 0
      | cs ->
        List.for_all
          (fun (c, e) ->
             (* The child's region must be reachable within the prescribed
                edge length from the node's region. *)
             Tilted.dist node.region c.region <= e + slack
             && abs (c.sink_dist + e - node.sink_dist) <= slack)
          cs
    in
    ok_here && List.for_all (fun (c, _) -> check c) node.children
  in
  check root
