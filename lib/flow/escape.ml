open Pacor_geom
open Pacor_grid
module W = Pacor_route.Workspace
module Stats = Pacor_route.Search_stats

type request = {
  cluster_idx : int;
  start_cells : Point.t list;
}

type routed = {
  idx : int;
  start_cell : Point.t;
  pin : Point.t;
  path : Path.t;
}

type outcome = {
  routed : routed list;
  failed : int list;
  total_length : int;
}

(* Cell roles in the flow network, packed two bits per cell. Precedence
   (highest wins): blocked > pin > start > occupied or boundary > ordinary. *)
let role_excluded = Mcmf_grid.role_excluded (* obstacle, non-pin boundary, occupied cell *)
let role_ordinary = Mcmf_grid.role_ordinary (* free interior transit cell *)
let role_pin = Mcmf_grid.role_pin (* candidate control pin: sink only *)
let role_start = Mcmf_grid.role_start (* occupied cell usable as some cluster's source *)

(* The pin and start overlay of a role layer: later writes win, and the
   writes are guarded by [free_i] so a blocked cell stays excluded. *)
let overlay_roles ~grid roles ~pins requests =
  let set role p =
    if Routing_grid.in_bounds grid p then begin
      let i = Routing_grid.index grid p in
      if Routing_grid.free_i grid i then Packed_roles.set roles i role
    end
  in
  List.iter (fun r -> List.iter (set role_start) r.start_cells) requests;
  List.iter (set role_pin) pins

(* Dense role layer indexed by [Routing_grid.index]: one two-bit read per
   cell and per neighbour. Before the overlay a cell is ordinary iff it is
   interior and free in [occupied], excluded otherwise: the free cells
   are filled eight at a time from the bitmap, then the ring is cleared.
   The overlay order realises the precedence. The backing bytes come
   from the workspace scratch pool when one is supplied, so repeated
   escape solves on a warm workspace allocate nothing. *)
let compute_roles ?workspace ~grid ~occupied ~pins requests =
  let w = Routing_grid.width grid and h = Routing_grid.height grid in
  if Obstacle_map.width occupied <> w || Obstacle_map.height occupied <> h then
    invalid_arg "Escape.compute_roles: occupied map and grid differ in size";
  let len = Packed_roles.bytes_needed (w * h) in
  let data =
    match workspace with
    | Some ws -> W.scratch_bytes ws ~slot:0 ~len
    | None -> Bytes.create len
  in
  Obstacle_map.fill_free_packed occupied data role_ordinary;
  let roles = Packed_roles.wrap ~len:(w * h) data in
  let exclude i = Packed_roles.set roles i role_excluded in
  for x = 0 to w - 1 do
    exclude x;
    exclude (((h - 1) * w) + x)
  done;
  for y = 1 to h - 2 do
    exclude (y * w);
    exclude ((y * w) + w - 1)
  done;
  overlay_roles ~grid roles ~pins requests;
  roles

(* The [Mcmf_grid] network of [requests] over [roles]: a node-split grid
   (cell i -> nodes 2i / 2i+1) plus one node per request and a super
   source/sink, with arcs enumerated from the role layer. *)
let grid_network ?workspace ~grid ~roles requests =
  let starts =
    Array.of_list
      (List.map
         (fun r -> Array.of_list (List.map (Routing_grid.index grid) r.start_cells))
         requests)
  in
  Mcmf_grid.create ?workspace ~grid ~roles starts

let validate ~grid ~pins requests =
  let bad_pin =
    List.find_opt
      (fun p -> (not (Routing_grid.on_boundary grid p)) || Routing_grid.blocked grid p)
      pins
  in
  match bad_pin with
  | Some p -> Error (Format.asprintf "pin %a is not a free boundary cell" Point.pp p)
  | None ->
    let bad_start =
      List.concat_map (fun r -> r.start_cells) requests
      |> List.find_opt (fun p -> (not (Routing_grid.in_bounds grid p)) || Routing_grid.blocked grid p)
    in
    (match bad_start with
     | Some p -> Error (Format.asprintf "start cell %a is blocked or out of bounds" Point.pp p)
     | None ->
       if List.exists (fun r -> r.start_cells = []) requests then
         Error "a request has no start cells"
       else begin
         (* Duplicate identifiers used to be dropped silently downstream
            (last [Hashtbl.replace] won); make the contract explicit. *)
         let seen = Hashtbl.create 16 in
         let dup =
           List.find_opt
             (fun r ->
                if Hashtbl.mem seen r.cluster_idx then true
                else begin
                  Hashtbl.add seen r.cluster_idx ();
                  false
                end)
             requests
         in
         match dup with
         | Some r ->
           Error (Printf.sprintf "duplicate cluster_idx %d in requests" r.cluster_idx)
         | None -> Ok ()
       end)

(* One BFS step of [seed_bfs] from a cell at distance [du] onto cell
   [j], with [tail] the FIFO's end: an undiscovered ordinary cell gets
   distance [du + 1] and joins the FIFO. Returns the new end. *)
let[@inline] seed_visit roles d queue du j tail =
  if Array.unsafe_get d j < 0 && Packed_roles.get roles j = role_ordinary then begin
    Array.unsafe_set d j (du + 1);
    Array.unsafe_set queue tail j;
    tail + 1
  end
  else tail

(* The seed's BFS, one multi-source BFS over cells from the pins through
   ordinary cells, as one flat loop over two leased int arrays: distances
   in int slot 4 (-1 unreached) and the FIFO in slot 5, with the four
   neighbours written out in [Routing_grid.iter_neighbours4] order, so a
   step costs array reads and no call. Ordinary cells are interior (no
   role layer puts one on the ring), so only a pin, at distance 0, pays a
   division for its column and can lack a neighbour. It ticks the budget
   once per pop, the final empty one included, so a budget trips where a
   deque BFS's would, and charges the work a deque BFS charges: one
   search and reset, a push per pin and discovered cell, a pop per cell
   and a touch per in-grid neighbour. *)
let seed_bfs ws ~grid ~roles ~pins =
  let cells = Routing_grid.cells grid in
  let w = Routing_grid.width grid in
  let budget = W.budget ws in
  let d = W.scratch_int ws ~slot:4 ~cells and queue = W.scratch_int ws ~slot:5 ~cells in
  Array.fill d 0 cells (-1);
  let tail = ref 0 in
  List.iter
    (fun p ->
       if Routing_grid.in_bounds grid p then begin
         let i = Routing_grid.index grid p in
         if Packed_roles.get roles i = role_pin && d.(i) < 0 then begin
           d.(i) <- 0;
           queue.(!tail) <- i;
           incr tail
         end
       end)
    pins;
  let npins = !tail and head = ref 0 in
  while Pacor_route.Budget.tick budget && !head < !tail do
    let u = Array.unsafe_get queue !head in
    incr head;
    let du = Array.unsafe_get d u in
    let x = if du = 0 then u mod w else 1 and t = !tail in
    let t = if x + 1 < w then seed_visit roles d queue du (u + 1) t else t in
    let t = if x > 0 then seed_visit roles d queue du (u - 1) t else t in
    let t = if u + w < cells then seed_visit roles d queue du (u + w) t else t in
    tail := if u >= w then seed_visit roles d queue du (u - w) t else t
  done;
  let touched = ref (4 * !head) in
  for k = 0 to min !head npins - 1 do
    let u = queue.(k) in
    List.iter (fun off -> if off then decr touched)
      [ u mod w = w - 1; u mod w = 0; u + w >= cells; u < w ]
  done;
  Stats.charge (W.stats ws)
    { Stats.zero with
      Stats.searches = 1; resets = 1; pops = !head; pushes = !tail; touched = !touched;
      relaxations = !tail - npins };
  d

(* Goal-direction seed for [Mcmf_grid.seed], read off the BFS distances.
   In the node-split network only ordinary cells transit, so every node's
   distance to the sink is a cell distance: with [D(i)] the steps from
   ordinary cell [i] to the nearest pin ([D] = 0 on pins),
   - [in(pin)] = 0, through its zero-cost arc into the sink;
   - [in(i)] = [out(i)] = [D(i)] for an ordinary cell [i];
   - [out(start)] = 1 + the least [D] over its ordinary and pin
     neighbours;
   - a request node = the least [h] over its start cells' [out] nodes;
   - the source = the least [h] over the request nodes; the sink = 0.
   Every other node (pin [out], start [in], excluded cells, and anything
   the BFS never reached) has no [h] and is dead. A budget trip inside
   the BFS leaves [D] partial, which is harmless because every later
   round then fails on its first pop. *)
let seed_heights ws ~grid ~roles ~pins requests =
  let cells = Routing_grid.cells grid in
  let d = seed_bfs ws ~grid ~roles ~pins in
  let dist i = Array.unsafe_get d i in
  let h_in i =
    let r = Packed_roles.get roles i in
    if r = role_pin then 0 else if r = role_ordinary then dist i else -1
  in
  (* The lesser of two heights, where a negative one is missing. *)
  let least a b = if a < 0 || (b >= 0 && b < a) then b else a in
  let best = ref (-1) in
  let h_out i =
    let r = Packed_roles.get roles i in
    if r = role_ordinary then dist i
    else if r = role_start then begin
      best := -1;
      Routing_grid.iter_neighbours4 grid i (fun j -> best := least !best (h_in j));
      if !best < 0 then -1 else !best + 1
    end
    else -1
  in
  let base = 2 * cells in
  let h_req =
    Array.of_list
      (List.map
         (fun r ->
            List.fold_left
              (fun acc p -> least acc (h_out (Routing_grid.index grid p)))
              (-1) r.start_cells)
         requests)
  in
  let nreq = Array.length h_req in
  let h_source = Array.fold_left least (-1) h_req in
  fun v ->
    if v < base then if v land 1 = 0 then h_in (v lsr 1) else h_out (v lsr 1)
    else if v < base + nreq then h_req.(v - base)
    else if v = base + nreq then h_source
    else 0

(* One min-cost-flow solve over the whole network. Inputs are assumed
   validated. A solve of two or more requests is seeded; one request is a
   single shortest-path search with nothing to amortise the seed over.
   Each part's wall time is added to the workspace's [escape_parts]. *)
let solve ~alive ?workspace ~grid ~occupied ~pins requests =
  let ws = match workspace with Some ws -> ws | None -> W.create () in
  let parts = W.escape_parts ws in
  let clock = ref (Pacor_route.Clock.now_mono ()) in
  let lap k =
    let now = Pacor_route.Clock.now_mono () in
    parts.(k) <- parts.(k) +. (now -. !clock);
    clock := now
  in
  let roles = compute_roles ~workspace:ws ~grid ~occupied ~pins requests in
  lap 0;
  let cells = Routing_grid.cells grid in
  let request_arr = Array.of_list requests in
  let nreq = Array.length request_arr in
  let seed = if nreq >= 2 then Some (seed_heights ws ~grid ~roles ~pins requests) else None in
  lap 1;
  let beta = (4 * cells) + 16 in
  (* The paper's [-beta] reward per routed path is realised as a stopping
     threshold: augment while a path still costs less than beta, which is
     larger than any possible augmenting-path cost — so the flow first
     maximises the number of routed clusters, then total length. *)
  let net = grid_network ~workspace:ws ~grid ~roles requests in
  Option.iter (fun h -> Mcmf_grid.seed net ~h) seed;
  let (_ : Mcmf_grid.outcome) =
    Mcmf_grid.solve ~alive ~workspace:ws ~stop_when_cost_reaches:beta net
  in
  lap 2;
  let routed_arr = Array.make nreq None in
  List.iter
    (fun (k, cells) ->
       let path = Path.of_points (List.map (Routing_grid.point_of_index grid) cells) in
       routed_arr.(k) <-
         Some
           { idx = request_arr.(k).cluster_idx; start_cell = Path.source path;
             pin = Path.target path; path })
    (Mcmf_grid.paths net);
  let routed = List.filter_map Fun.id (Array.to_list routed_arr) in
  lap 3;
  { routed;
    failed =
      List.filteri (fun k _ -> Option.is_none routed_arr.(k)) requests
      |> List.map (fun r -> r.cluster_idx);
    total_length = List.fold_left (fun acc r -> acc + Path.length r.path) 0 routed }

let route ?(alive = fun () -> true) ?workspace ~grid ~occupied ~pins requests =
  match validate ~grid ~pins requests with
  | Error _ as e -> e
  | Ok () -> Ok (solve ~alive ?workspace ~grid ~occupied ~pins requests)
