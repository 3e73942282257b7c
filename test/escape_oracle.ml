(* Differential oracles for the escape stage: the explicit network
   emitter and the node-split seed search that [Escape] used before it
   moved to implicit rows, the deque-based cell seed BFS it used before
   its BFS became a flat loop, plus a route pipeline built from them that
   solves over the explicit CSR network ([Mcmf_csr]), a joint solve with
   the general [Mcmf] and [Mcmf_spfa] solvers, and the Dinic ([Maxflow])
   bound on how many clusters any assignment could route. The held cells
   come as a [Point.Set], the form [Escape] took them in before it read
   the owner layer's map: [compute_roles] below is its role builder of
   that time, the reference for the map-based one, and every oracle here
   builds its roles with it. [occupied] turns such a set into the map
   [Escape] reads. They share the role constants with [Escape], and
   nothing else. *)

open Pacor_geom
open Pacor_grid
open Pacor_flow
module W = Pacor_route.Workspace

(* The map [Escape.route] reads for a set of claimed cells: [grid]'s
   static obstacles plus [claimed]. *)
let occupied ~grid claimed =
  let map = Routing_grid.fresh_work_map grid in
  Point.Set.iter (Obstacle_map.block map) claimed;
  map

(* The pin and start overlay of a role layer: later writes win, and the
   writes are guarded by [free_i] so a blocked cell stays excluded. *)
let overlay_roles ~grid roles ~pins (requests : Escape.request list) =
  let set role p =
    if Routing_grid.in_bounds grid p then begin
      let i = Routing_grid.index grid p in
      if Routing_grid.free_i grid i then Packed_roles.set roles i role
    end
  in
  List.iter (fun (r : Escape.request) -> List.iter (set Escape.role_start) r.start_cells) requests;
  List.iter (set Escape.role_pin) pins

(* The static grid's free interior cells ordinary, then [claimed] walked
   over them and excluded, then the overlay. Precedence (highest wins):
   blocked > pin > start > claimed > boundary > ordinary. *)
let compute_roles ~grid ~claimed ~pins requests =
  let w = Routing_grid.width grid and h = Routing_grid.height grid in
  let roles = Packed_roles.create (w * h) in
  for y = 1 to h - 2 do
    let row = y * w in
    for x = 1 to w - 2 do
      if Routing_grid.free_i grid (row + x) then
        Packed_roles.set roles (row + x) Escape.role_ordinary
    done
  done;
  Point.Set.iter
    (fun p ->
       if Routing_grid.in_bounds grid p then
         Packed_roles.set roles (Routing_grid.index grid p) Escape.role_excluded)
    claimed;
  overlay_roles ~grid roles ~pins requests;
  roles

(* Backward 0-1-BFS from the sink over the forward arcs [(src, dst,
   cost)] of an [n]-node network: each node's exact distance to the sink,
   -1 when it cannot reach it. One search on [ws], charged to its budget;
   nodes it never settles (budget trip) read as dead. *)
let split_seed ws ~n ~sink arcs =
  let preds = Array.make n [] in
  List.iter (fun (u, v, c) -> preds.(v) <- (u, c) :: preds.(v)) arcs;
  W.begin_flow ws ~nodes:n;
  let dq = Deque.create ws in
  W.set_dist ws sink 0;
  Deque.push_back dq sink;
  let running = ref true in
  while !running do
    let u = Deque.pop_front dq in
    if u < 0 then running := false
    else if not (W.closed ws u) then begin
      W.close ws u;
      let hu = W.dist ws u in
      List.iter
        (fun (v, c) ->
          if hu + c < W.dist ws v then begin
            W.set_dist ws v (hu + c);
            if c = 0 then Deque.push_front dq v else Deque.push_back dq v
          end)
        preds.(u)
    end
  done;
  Array.init n (fun v -> if W.closed ws v then W.dist ws v else -1)

(* The escape network, one [emit src dst cost] per forward arc (all
   capacities 1), in the emission order [Mcmf_grid]'s rows follow:
   row-major cells, neighbours in [Routing_grid.iter_neighbours4] order,
   then the request arcs in input order. Cell i is nodes 2i (in) and
   2i + 1 (out), request k is node 2 * cells + k, and the source and then
   the sink follow. *)
let emit_network ~grid ~roles (requests : Escape.request list) ~emit =
  let cells = Routing_grid.cells grid in
  let nreq = List.length requests in
  let source = (2 * cells) + nreq and sink = (2 * cells) + nreq + 1 in
  for i = 0 to cells - 1 do
    let role = Packed_roles.get roles i in
    if role <> Escape.role_excluded then begin
      let out_node = (2 * i) + 1 in
      if role = Escape.role_pin then emit (2 * i) sink 0
      else begin
        if role = Escape.role_ordinary then emit (2 * i) out_node 0;
        Routing_grid.iter_neighbours4 grid i (fun j ->
          let rj = Packed_roles.get roles j in
          if rj = Escape.role_ordinary || rj = Escape.role_pin then emit out_node (2 * j) 1)
      end
    end
  done;
  List.iteri
    (fun k (r : Escape.request) ->
       emit source ((2 * cells) + k) 0;
       List.iter
         (fun p -> emit ((2 * cells) + k) ((2 * Routing_grid.index grid p) + 1) 0)
         r.start_cells)
    requests

let network_arcs ~grid ~roles requests =
  let arcs = ref [] in
  emit_network ~grid ~roles requests ~emit:(fun s d c -> arcs := (s, d, c) :: !arcs);
  List.rev !arcs

(* Maximum number of clusters any escape assignment could route: Dinic's
   max flow of the network with costs ignored. *)
let feasibility_bound ~grid ~claimed ~pins requests =
  let roles = compute_roles ~grid ~claimed ~pins requests in
  let n = (2 * Routing_grid.cells grid) + List.length requests + 2 in
  let net = Maxflow.create n in
  emit_network ~grid ~roles requests ~emit:(fun src dst _ -> Maxflow.add_edge net ~src ~dst ~cap:1);
  Maxflow.max_flow net ~source:(n - 2) ~sink:(n - 1)

(* [split_seed] over the escape network of [requests]: the oracle for
   [Escape.seed_heights]. *)
let escape_split_seed ws ~grid ~roles requests =
  let cells = Routing_grid.cells grid in
  let nreq = List.length requests in
  let n = (2 * cells) + nreq + 2 in
  split_seed ws ~n ~sink:(n - 1) (network_arcs ~grid ~roles requests)

(* The seed as [Escape.seed_heights] computed it before its BFS became a
   flat loop over leased arrays: a multi-source BFS from the pins through
   ordinary cells on the workspace's stamped [dist] array and its deque,
   each neighbour visited through [Routing_grid.iter_neighbours4]'s
   closure. The same node formulas follow (see [Escape.seed_heights]);
   they are read into an array of all [2 * cells + nreq + 2] nodes before
   anything else searches on [ws]. One search on [ws], charged to its
   budget like any deque search: the oracle for the flat BFS's heights,
   its search counters and the point where a budget trips. *)
let deque_seed ws ~grid ~roles ~pins (requests : Escape.request list) =
  let cells = Routing_grid.cells grid in
  let stats = W.stats ws in
  W.begin_search ws ~cells;
  let dq = Deque.create ws in
  List.iter
    (fun p ->
       if Routing_grid.in_bounds grid p then begin
         let i = Routing_grid.index grid p in
         if Packed_roles.get roles i = Escape.role_pin && W.dist ws i <> 0 then begin
           W.set_dist ws i 0;
           Deque.push_back dq i
         end
       end)
    pins;
  let next = ref 0 in
  let visit j =
    Pacor_route.Search_stats.touched stats;
    if Packed_roles.get roles j = Escape.role_ordinary && W.dist ws j = max_int then begin
      Pacor_route.Search_stats.relaxed stats;
      W.set_dist ws j !next;
      Deque.push_back dq j
    end
  in
  let running = ref true in
  while !running do
    let u = Deque.pop_front dq in
    if u < 0 then running := false
    else begin
      next := W.dist ws u + 1;
      Routing_grid.iter_neighbours4 grid u visit
    end
  done;
  let d i = let x = W.dist ws i in if x = max_int then -1 else x in
  let h_in i =
    let r = Packed_roles.get roles i in
    if r = Escape.role_pin then 0 else if r = Escape.role_ordinary then d i else -1
  in
  let least a b = if a < 0 || (b >= 0 && b < a) then b else a in
  let h_out i =
    let r = Packed_roles.get roles i in
    if r = Escape.role_ordinary then d i
    else if r = Escape.role_start then begin
      let best = ref (-1) in
      Routing_grid.iter_neighbours4 grid i (fun j -> best := least !best (h_in j));
      if !best < 0 then -1 else !best + 1
    end
    else -1
  in
  let base = 2 * cells in
  let h_req =
    Array.of_list
      (List.map
         (fun (r : Escape.request) ->
            List.fold_left
              (fun acc p -> least acc (h_out (Routing_grid.index grid p)))
              (-1) r.start_cells)
         requests)
  in
  let nreq = Array.length h_req in
  let h_source = Array.fold_left least (-1) h_req in
  Array.init (base + nreq + 2) (fun v ->
    if v < base then if v land 1 = 0 then h_in (v lsr 1) else h_out (v lsr 1)
    else if v < base + nreq then h_req.(v - base)
    else if v = base + nreq then h_source
    else 0)

(* Unit node-paths source -> request -> cells -> sink mapped back to grid
   paths the way [Escape] maps its own. *)
let routed_of_paths ~grid requests node_paths =
  let cells = Routing_grid.cells grid in
  let reqs = Array.of_list requests in
  List.filter_map
    (fun nodes ->
      match nodes with
      | _ :: cnode :: rest ->
        let req = reqs.(cnode - (2 * cells)) in
        let cells_of =
          List.filter_map (fun v -> if v < 2 * cells then Some (v / 2) else None) rest
        in
        let rec dedup acc = function
          | a :: (b :: _ as tl) when a = b -> dedup acc tl
          | a :: tl -> dedup (a :: acc) tl
          | [] -> List.rev acc
        in
        (match dedup [] cells_of with
         | [] -> None
         | first :: _ as is ->
           let path = Path.of_points (List.map (Routing_grid.point_of_index grid) is) in
           Some
             { Escape.idx = req.Escape.cluster_idx;
               start_cell = Routing_grid.point_of_index grid first;
               pin = Path.target path;
               path })
      | _ -> None)
    node_paths

(* The outcome of [routed] paths for [requests], in request order. *)
let outcome_of_routed requests routed =
  let find (r : Escape.request) =
    List.find_opt (fun (e : Escape.routed) -> e.idx = r.cluster_idx) routed
  in
  let routed_in_order = List.filter_map find requests in
  { Escape.routed = routed_in_order;
    failed =
      List.filter_map
        (fun (r : Escape.request) -> if find r = None then Some r.cluster_idx else None)
        requests;
    total_length =
      List.fold_left (fun acc (e : Escape.routed) -> acc + Path.length e.path) 0
        routed_in_order }

(* [Escape.route] rebuilt from the oracles: one solve of the whole
   network over the explicit CSR network on [ws] (and its budget),
   seeded by [split_seed] when there are two or more requests; one
   request runs the CSR's unseeded 0-1-BFS rounds, the order [Escape]'s
   cell BFS follows. *)
let route ?alive ws ~grid ~claimed ~pins requests =
  let cells = Routing_grid.cells grid in
  let nreq = List.length requests in
  let n = (2 * cells) + nreq + 2 in
  let roles = compute_roles ~grid ~claimed ~pins requests in
  let arcs = network_arcs ~grid ~roles requests in
  let emit_arcs f = List.iter (fun (src, dst, cost) -> f ~src ~dst ~cost) arcs in
  let net = Mcmf_csr.build ~n ~source:(n - 2) ~sink:(n - 1) ~emit_arcs in
  if nreq >= 2 then begin
    let h = split_seed ws ~n ~sink:(n - 1) arcs in
    Mcmf_csr.seed net ~h:(fun v -> h.(v))
  end;
  let (_ : Mcmf_csr.outcome) =
    Mcmf_csr.solve ?alive ~workspace:ws ~stop_when_cost_reaches:((4 * cells) + 16) net
  in
  outcome_of_routed requests (routed_of_paths ~grid requests (Mcmf_csr.decompose_paths net))

(* The whole escape network solved by a general min-cost-flow
   solver under the same [-beta] stopping threshold as [Escape]: an
   optimum with the same routed count and total length. *)
let general_route solver ~grid ~claimed ~pins requests =
  let cells = Routing_grid.cells grid in
  let n = (2 * cells) + List.length requests + 2 in
  let source = n - 2 and sink = n - 1 in
  let stop_when_cost_reaches = (4 * cells) + 16 in
  let roles = compute_roles ~grid ~claimed ~pins requests in
  let paths =
    match solver with
    | `Dijkstra ->
      let net = Mcmf.create n in
      emit_network ~grid ~roles requests ~emit:(fun src dst cost ->
        Mcmf.add_edge net ~src ~dst ~cap:1 ~cost);
      let (_ : Mcmf.outcome) = Mcmf.solve ~stop_when_cost_reaches net ~source ~sink in
      Mcmf.decompose_paths net ~source ~sink
    | `Spfa ->
      let net = Mcmf_spfa.create n in
      emit_network ~grid ~roles requests ~emit:(fun src dst cost ->
        Mcmf_spfa.add_edge net ~src ~dst ~cap:1 ~cost);
      let (_ : Mcmf_spfa.outcome) = Mcmf_spfa.solve ~stop_when_cost_reaches net ~source ~sink in
      Mcmf_spfa.decompose_paths net ~source ~sink
  in
  outcome_of_routed requests (routed_of_paths ~grid requests paths)
