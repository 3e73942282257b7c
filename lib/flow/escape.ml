open Pacor_geom
open Pacor_grid
module W = Pacor_route.Workspace
module A = Bigarray.Array1
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
   in int slot 2 (-1 unreached) and the FIFO in slot 3, with the four
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
  let d = W.scratch_array ws ~slot:2 ~cells and queue = W.scratch_array ws ~slot:3 ~cells in
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

(* The state of [single_bfs]: the node record's stamp marks an entered
   cell [i] at [4 * i] (its parent cell in the parent field) and start
   [s]'s out node at [4 * (cells + s)]; [queue] (int slot 3) holds the
   distinct starts, then the entered cells. *)
type bfs = {
  roles : Packed_roles.t;
  nodes : W.ints;
  queue : int array;
  e2 : int;
  mutable tail : int;
  mutable touched : int;
}

(* [u]'s out node relaxes [in(j)]: a touch if [j] is ordinary or a pin,
   and on the first, [j] joins the FIFO with parent [u]. *)
let[@inline] bfs_enter b u j =
  let rj = Packed_roles.get b.roles j in
  if rj = role_ordinary || rj = role_pin then begin
    b.touched <- b.touched + 1;
    if A.unsafe_get b.nodes (4 * j) <> b.e2 then begin
      A.unsafe_set b.nodes (4 * j) b.e2;
      A.unsafe_set b.nodes ((4 * j) + 2) u;
      Array.unsafe_set b.queue b.tail j;
      b.tail <- b.tail + 1
    end
  end

(* [u]'s out node: its neighbours in [iter_neighbours4] order. Only a
   start can lie on the ring and lack one. *)
let bfs_expand b ~w ~cells u =
  let x = if Packed_roles.get b.roles u = role_ordinary then 1 else u mod w in
  if x + 1 < w then bfs_enter b u (u + 1);
  if x > 0 then bfs_enter b u (u - 1);
  if u + w < cells then bfs_enter b u (u + w);
  if u >= w then bfs_enter b u (u - w)

(* One request's flow is one shortest path: a FIFO BFS over cells in the
   order the node-split network's 0-1-BFS round visits them on a fresh
   network: the source, the request, its distinct start cells' out nodes
   last-first (pushed to the deque's front; a start on a pin expands
   nothing), then each entered cell's in node, followed at once by its
   out node (a zero-cost arc), until a pin's in node leads to the sink.
   It ticks the budget per node pop, the final empty pop included, and
   charges what the round charged: a pop per node, a touch per arc with
   capacity, a relaxation and a push per first touch. A found path is
   followed, while [alive], by the round that finds the source saturated.
   Returns the path's cells, start to pin, or []. *)
let single_bfs ~alive ws ~grid ~roles (r : request) =
  let cells = Routing_grid.cells grid and w = Routing_grid.width grid in
  let budget = W.budget ws and n = (2 * cells) + 3 in
  let tick () = Pacor_route.Budget.tick budget in
  let pops = ref 0 and arcs = ref 0 and rounds = ref 0 and touched = ref 0 and relaxed = ref 0 in
  (* A node's pop, and an arc with capacity followed by its head's pop. *)
  let pop () = tick () && (incr pops; true) in
  let arc () = incr arcs; pop () in
  let path = ref [] in
  if alive () then begin
    incr rounds;
    W.begin_flow ws ~nodes:n;
    let b =
      { roles; nodes = W.node_record ws; e2 = W.touched_stamp ws; tail = 0; touched = 0;
        queue = W.scratch_array ws ~slot:3 ~cells:(cells + List.length r.start_cells) }
    in
    (* The source, its arc and the request, whose arcs touch every listed
       start and push the distinct ones, last-first. *)
    if pop () && arc () then begin
      b.touched <- List.length r.start_cells;
      List.iter
        (fun s ->
           b.queue.(b.tail) <- s;
           b.tail <- b.tail + 1)
        (List.fold_left
           (fun acc p ->
              let s = Routing_grid.index grid p in
              if b.nodes.{4 * (cells + s)} = b.e2 then acc
              else begin
                b.nodes.{4 * (cells + s)} <- b.e2;
                s :: acc
              end)
           [] r.start_cells);
      let starts = b.tail and head = ref 0 and pin = ref (-1) and live = ref true in
      while !live && !pin < 0 do
        if !head = b.tail then begin
          ignore (tick () : bool);
          live := false
        end
        else begin
          let j = b.queue.(!head) in
          incr head;
          if !head <= starts then begin
            live := pop ();
            if !live && Packed_roles.get roles j = role_start then bfs_expand b ~w ~cells j
          end
          else begin
            (* [in(j)], its own arc, then [out(j)] or the sink. *)
            live := pop () && arc ();
            if !live then
              if Packed_roles.get roles j = role_pin then pin := j else bfs_expand b ~w ~cells j
          end
        end
      done;
      let rec walk v acc =
        if Packed_roles.get roles v = role_start then v :: acc
        else walk b.nodes.{(4 * v) + 2} (v :: acc)
      in
      if !pin >= 0 then path := walk b.nodes.{(4 * !pin) + 2} [ !pin ]
    end;
    touched := !arcs + b.touched;
    relaxed := !arcs + b.tail
  end;
  if !path <> [] && alive () then begin
    incr rounds;
    W.begin_flow ws ~nodes:n;
    if pop () then ignore (tick () : bool)
  end;
  Stats.charge (W.stats ws)
    { Stats.zero with
      pops = !pops; pushes = !rounds + !relaxed; touched = !touched; relaxations = !relaxed };
  !path

(* One min-cost-flow solve over the whole network. Inputs are assumed
   validated. A solve of two or more requests is seeded; one request is a
   single shortest-path search ([single_bfs]), and an empty request
   list runs none. Each part's wall time is added to the workspace's
   [escape_parts]. *)
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
  let paths =
    match requests with
    | [] -> []
    | [ r ] ->
      lap 1;
      let path = single_bfs ~alive ws ~grid ~roles r in
      lap 2;
      if path = [] then [] else [ (0, path) ]
    | _ ->
      let h = seed_heights ws ~grid ~roles ~pins requests in
      lap 1;
      (* The paper's [-beta] reward per routed path is realised as a
         stopping threshold: augment while a path still costs less than
         beta, which is larger than any possible augmenting-path cost — so
         the flow first maximises the number of routed clusters, then
         total length. *)
      let beta = (4 * cells) + 16 in
      let net = grid_network ~workspace:ws ~grid ~roles requests in
      Mcmf_grid.seed net ~h;
      let (_ : Mcmf_grid.outcome) =
        Mcmf_grid.solve ~alive ~workspace:ws ~stop_when_cost_reaches:beta net
      in
      lap 2;
      Mcmf_grid.paths net
  in
  let routed_arr = Array.make nreq None in
  List.iter
    (fun (k, cells) ->
       let path = Path.of_points (List.map (Routing_grid.point_of_index grid) cells) in
       routed_arr.(k) <-
         Some
           { idx = request_arr.(k).cluster_idx; start_cell = Path.source path;
             pin = Path.target path; path })
    paths;
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
