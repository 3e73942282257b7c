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
   (highest wins): blocked > pin > start > claimed > boundary > ordinary. *)
let role_excluded = Mcmf_grid.role_excluded (* obstacle, non-pin boundary, foreign claim *)
let role_ordinary = Mcmf_grid.role_ordinary (* free interior transit cell *)
let role_pin = Mcmf_grid.role_pin (* candidate control pin: sink only *)
let role_start = Mcmf_grid.role_start (* claimed cell usable as some cluster's source *)

(* Dense role layer indexed by [Routing_grid.index]: the
   O(log n)-per-probe [Point.Set.mem] lookups of the old builder become
   one two-bit read per cell and per neighbour. The overlay order below
   realises the precedence: later writes win, and the pin/start writes
   are guarded by [free_i] so a blocked cell stays excluded. The backing
   bytes come from the workspace scratch pool when one is supplied, so
   repeated escape solves on a warm workspace allocate nothing. *)
let compute_roles ?workspace ~grid ~claimed ~pins requests =
  let cells = Routing_grid.cells grid in
  let roles =
    match workspace with
    | Some ws ->
      Packed_roles.wrap ~len:cells
        (Pacor_route.Workspace.scratch_bytes ws ~slot:0 ~len:(Packed_roles.bytes_needed cells))
    | None -> Packed_roles.create cells
  in
  Routing_grid.fill_interior_free_packed grid roles;
  Point.Set.iter
    (fun p ->
       if Routing_grid.in_bounds grid p then
         Packed_roles.set roles (Routing_grid.index grid p) role_excluded)
    claimed;
  List.iter
    (fun r ->
       List.iter
         (fun p ->
            if Routing_grid.in_bounds grid p then begin
              let i = Routing_grid.index grid p in
              if Routing_grid.free_i grid i then Packed_roles.set roles i role_start
            end)
         r.start_cells)
    requests;
  List.iter
    (fun p ->
       if Routing_grid.in_bounds grid p then begin
         let i = Routing_grid.index grid p in
         if Routing_grid.free_i grid i then Packed_roles.set roles i role_pin
       end)
    pins;
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

(* One BFS step of [seed_heights] onto cell [j], with [tail] the FIFO's
   end: an undiscovered ordinary cell gets distance [next] and joins the
   FIFO. Returns the new end. *)
let[@inline] seed_visit stats roles d queue next j tail =
  Stats.touched stats;
  if Array.unsafe_get d j < 0 && Packed_roles.get roles j = role_ordinary then begin
    Stats.relaxed stats;
    Stats.pushed stats;
    Array.unsafe_set d j next;
    Array.unsafe_set queue tail j;
    tail + 1
  end
  else tail

(* Goal-direction seed for [Mcmf_grid.seed]. In the node-split network
   only ordinary cells transit, so every node's distance to the sink is a
   cell distance. One multi-source BFS over cells, from the pins through
   ordinary cells, gives [D(i)], the steps from ordinary cell [i] to the
   nearest pin ([D] = 0 on pins), and each node's [h] follows exactly:
   - [in(pin)] = 0, through its zero-cost arc into the sink;
   - [in(i)] = [out(i)] = [D(i)] for an ordinary cell [i];
   - [out(start)] = 1 + the least [D] over its ordinary and pin
     neighbours;
   - a request node = the least [h] over its start cells' [out] nodes;
   - the source = the least [h] over the request nodes; the sink = 0.
   Every other node (pin [out], start [in], excluded cells, and anything
   the BFS never reached) has no [h] and is dead.

   The BFS is one flat loop over two leased int arrays, [D] in int slot 4
   (-1 = unreached) and its FIFO in slot 5, with the four neighbours
   written out in [Routing_grid.iter_neighbours4] order, so a step costs
   array reads and no call. It counts as one workspace search, with the
   counters a deque BFS charges (a push per discovered cell, a touch per
   in-grid neighbour), and ticks the budget once per pop, the final
   empty one included, so a budget trips where a deque BFS's would. A budget trip inside it leaves [D]
   partial, which is harmless because every later round then fails on
   its first pop. The returned function reads slot 4, so it stays valid
   while the rounds search, until int slots 4–5 are next leased. *)
let seed_heights ws ~grid ~roles ~pins requests =
  let cells = Routing_grid.cells grid in
  let w = Routing_grid.width grid in
  let stats = W.stats ws and budget = W.budget ws in
  W.begin_search ws ~cells;
  let d = W.scratch_int ws ~slot:4 ~cells and queue = W.scratch_int ws ~slot:5 ~cells in
  Array.fill d 0 cells (-1);
  let tail = ref 0 in
  List.iter
    (fun p ->
       if Routing_grid.in_bounds grid p then begin
         let i = Routing_grid.index grid p in
         if Packed_roles.get roles i = role_pin && d.(i) <> 0 then begin
           Stats.pushed stats;
           d.(i) <- 0;
           queue.(!tail) <- i;
           incr tail
         end
       end)
    pins;
  let head = ref 0 in
  while Pacor_route.Budget.tick budget && !head < !tail do
    let u = Array.unsafe_get queue !head in
    incr head;
    Stats.popped stats;
    let next = Array.unsafe_get d u + 1 and x = u mod w in
    let t = !tail in
    let t = if x + 1 < w then seed_visit stats roles d queue next (u + 1) t else t in
    let t = if x > 0 then seed_visit stats roles d queue next (u - 1) t else t in
    let t = if u + w < cells then seed_visit stats roles d queue next (u + w) t else t in
    tail := if u >= w then seed_visit stats roles d queue next (u - w) t else t
  done;
  let h_in i =
    let r = Packed_roles.get roles i in
    if r = role_pin then 0 else if r = role_ordinary then d.(i) else -1
  in
  (* The lesser of two heights, where a negative one is missing. *)
  let least a b = if a < 0 || (b >= 0 && b < a) then b else a in
  let best = ref (-1) in
  let h_out i =
    let r = Packed_roles.get roles i in
    if r = role_ordinary then d.(i)
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

(* Escape groups for [solve_once]: requests whose reachable regions share
   no cell cannot exchange flow. Cells are linked by the symmetric closure
   of the network's cell-to-cell arcs — a cell with out-arcs
   (ordinary or start) to an enterable neighbour (ordinary or pin) — and
   each request fuses the regions of all its live (role start) cells. A
   pin is linked to its neighbours on every side, so it fuses the regions
   around it even though flow can only end there: the grouping is
   conservative, never finer than the flow allows. Each region is one
   flood fill from a request's first unlabelled live start cell, labelling
   cells in [comp] (workspace int slot 4) with slot 5 as the stack; a
   small union-find over region ids records the fusions. Returns [None]
   for at most one group, else each request's group (groups numbered in
   first-request order; a request with no live start rides with group 0,
   where its subsolve fails it as the joint solve would) and each group's
   pins in input order (a pin no live request can reach is dropped: it
   carries no flow). *)
let group_requests ?workspace ~grid ~roles ~pins req_arr =
  let cells = Routing_grid.cells grid in
  let nreq = Array.length req_arr in
  let comp, stack =
    match workspace with
    | Some ws -> (W.scratch_int ws ~slot:4 ~cells, W.scratch_int ws ~slot:5 ~cells)
    | None -> (Array.make cells 0, Array.make cells 0)
  in
  Array.fill comp 0 cells (-1);
  let role i = Packed_roles.get roles i in
  let index_with_role r p =
    if Routing_grid.in_bounds grid p then begin
      let i = Routing_grid.index grid p in
      if role i = r then i else -1
    end
    else -1
  in
  let transit r = r = role_ordinary || r = role_start in
  let enterable r = r = role_ordinary || r = role_pin in
  (* At most one region per live start cell. *)
  let region_parent =
    Array.make (Array.fold_left (fun acc r -> acc + List.length r.start_cells) 0 req_arr) 0
  in
  let nregions = ref 0 in
  let sp = ref 0 in
  let push j =
    comp.(j) <- !nregions;
    stack.(!sp) <- j;
    incr sp
  in
  let ru = ref role_excluded in
  let visit j =
    if comp.(j) < 0 then begin
      let rj = role j in
      if (transit !ru && enterable rj) || (transit rj && enterable !ru) then push j
    end
  in
  let flood s =
    region_parent.(!nregions) <- !nregions;
    push s;
    while !sp > 0 do
      decr sp;
      let u = stack.(!sp) in
      ru := role u;
      Routing_grid.iter_neighbours4 grid u visit
    done;
    incr nregions
  in
  let rec find r =
    let p = region_parent.(r) in
    if p = r then r
    else begin
      let root = find p in
      region_parent.(r) <- root;
      root
    end
  in
  let first = Array.make nreq (-1) in
  Array.iteri
    (fun k r ->
       List.iter
         (fun p ->
            let i = index_with_role role_start p in
            if i >= 0 then begin
              if comp.(i) < 0 then flood i;
              if first.(k) < 0 then first.(k) <- comp.(i)
              else begin
                let a = find first.(k) and b = find comp.(i) in
                if a <> b then region_parent.(b) <- a
              end
            end)
         r.start_cells)
    req_arr;
  let gid_of_root = Array.make !nregions (-1) in
  let ngroups = ref 0 in
  let gid = Array.make nreq 0 in
  Array.iteri
    (fun k r ->
       if r >= 0 then begin
         let root = find r in
         if gid_of_root.(root) < 0 then begin
           gid_of_root.(root) <- !ngroups;
           incr ngroups
         end;
         gid.(k) <- gid_of_root.(root)
       end)
    first;
  if !ngroups <= 1 then None
  else begin
    let group_pins = Array.make !ngroups [] in
    List.iter
      (fun p ->
         let i = index_with_role role_pin p in
         if i >= 0 && comp.(i) >= 0 then begin
           let g = gid_of_root.(find comp.(i)) in
           group_pins.(g) <- p :: group_pins.(g)
         end)
      (List.rev pins);
    Some (gid, group_pins)
  end

(* One min-cost-flow solve over one joint network, no decomposition:
   [solve_once] composes these. Inputs are assumed validated; [roles] is
   [compute_roles] of exactly these pins and requests. The solve is
   seeded ([seed_heights]) whenever there are two or more requests; one
   request is a single shortest-path search with nothing to amortise the
   seed over. *)
let solve_joint ~alive ?workspace ~grid ~roles ~pins requests =
  let cells = Routing_grid.cells grid in
  let nreq = List.length requests in
  let beta = (4 * cells) + 16 in
  (* The paper's [-beta] reward per routed path is realised as a stopping
     threshold: augment while a path still costs less than beta, which is
     larger than any possible augmenting-path cost — so the flow first
     maximises the number of routed clusters, then total length. *)
  let ws = match workspace with Some ws -> ws | None -> W.create () in
  let net = grid_network ~workspace:ws ~grid ~roles requests in
  if nreq >= 2 then Mcmf_grid.seed net ~h:(seed_heights ws ~grid ~roles ~pins requests);
  let (_ : Mcmf_grid.outcome) =
    Mcmf_grid.solve ~alive ~workspace:ws ~stop_when_cost_reaches:beta net
  in
  let node_paths = Mcmf_grid.decompose_paths net in
  (* Map each unit path back to its request (second node is the cluster
     node) and to grid points (in/out pairs collapse). *)
  let request_arr = Array.of_list requests in
  let routed_tbl = Hashtbl.create 16 in
  List.iter
    (fun nodes ->
       match nodes with
       | _src :: cnode :: rest when cnode >= 2 * cells && cnode < (2 * cells) + nreq ->
         let req = request_arr.(cnode - (2 * cells)) in
         let points =
           List.filter_map
             (fun node ->
                if node < 2 * cells then Some (Routing_grid.point_of_index grid (node / 2))
                else None)
             rest
         in
         (* Drop the in/out duplicate of each transit cell; iterative
            accumulator so Chip1-length escapes cannot overflow the
            stack. *)
         let collapse pts =
           let rec go acc = function
             | a :: (b :: _ as tl) when Point.equal a b -> go acc tl
             | a :: tl -> go (a :: acc) tl
             | [] -> List.rev acc
           in
           go [] pts
         in
         let pts = collapse points in
         (match pts with
          | [] -> ()
          | first :: _ ->
            let path = Path.of_points pts in
            Hashtbl.replace routed_tbl req.cluster_idx
              { idx = req.cluster_idx; start_cell = first; pin = Path.target path; path })
       | _ -> ())
    node_paths;
  let routed =
    List.filter_map (fun r -> Hashtbl.find_opt routed_tbl r.cluster_idx) requests
  in
  let failed =
    List.filter_map
      (fun r ->
         if Hashtbl.mem routed_tbl r.cluster_idx then None else Some r.cluster_idx)
      requests
  in
  let total_length = List.fold_left (fun acc r -> acc + Path.length r.path) 0 routed in
  { routed; failed; total_length }

(* Independent escape subnetworks. Two requests whose reachable regions
   share no cell cannot exchange flow: the min-cost-flow over the joint
   network is exactly the union of the flows over the per-group
   subnetworks. [solve_once] finds the groups ([group_requests]), and when
   there are at least two it solves each subinstance separately, in group
   order on the caller's workspace: requests and pins keep input order
   within their group, and groups merge in first-request order.

   The single-group case (the common one: chips have connected free
   space) runs the historical joint solve, byte-for-byte. Decomposition
   is disabled when the caller's workspace carries real budget limits, so
   a budgeted solve keeps the joint solve's operation order and trips
   its budget at the same point. *)
let solve_once ~alive ?workspace ~grid ~claimed ~pins requests =
  let budget_free =
    match workspace with
    | None -> true
    | Some ws -> Pacor_route.Budget.is_no_limits (Pacor_route.Budget.limits_of (W.budget ws))
  in
  let req_arr = Array.of_list requests in
  let roles = compute_roles ?workspace ~grid ~claimed ~pins requests in
  let groups =
    if budget_free && Array.length req_arr >= 2 then
      group_requests ?workspace ~grid ~roles ~pins req_arr
    else None
  in
  match groups with
  | None -> solve_joint ~alive ?workspace ~grid ~roles ~pins requests
  | Some (gid, group_pins) ->
    let ws = match workspace with Some ws -> ws | None -> W.create () in
    let ng = Array.length group_pins in
    let group_reqs = Array.make ng [] in
    for k = Array.length req_arr - 1 downto 0 do
      group_reqs.(gid.(k)) <- req_arr.(k) :: group_reqs.(gid.(k))
    done;
    let tbl = Hashtbl.create 16 in
    let total = ref 0 in
    for g = 0 to ng - 1 do
      let roles =
        compute_roles ~workspace:ws ~grid ~claimed ~pins:group_pins.(g) group_reqs.(g)
      in
      let out =
        solve_joint ~alive ~workspace:ws ~grid ~roles ~pins:group_pins.(g) group_reqs.(g)
      in
      List.iter (fun r -> Hashtbl.replace tbl r.idx r) out.routed;
      total := !total + out.total_length
    done;
    let routed =
      List.filter_map
        (fun (r : request) -> Hashtbl.find_opt tbl r.cluster_idx)
        requests
    in
    let failed =
      List.filter_map
        (fun (r : request) ->
          if Hashtbl.mem tbl r.cluster_idx then None else Some r.cluster_idx)
        requests
    in
    { routed; failed; total_length = !total }

let route ?(alive = fun () -> true) ?workspace ~grid ~claimed ~pins requests =
  match validate ~grid ~pins requests with
  | Error _ as e -> e
  | Ok () -> Ok (solve_once ~alive ?workspace ~grid ~claimed ~pins requests)
