open Pacor_geom
open Pacor_grid
open Pacor_graphs
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

(* Dense role layer indexed by [Routing_grid.index]: the
   O(log n)-per-probe [Point.Set.mem] lookups of the old builder become
   one two-bit read per cell and per neighbour. The overlay order
   realises the precedence. The backing bytes come from the workspace
   scratch pool when one is supplied, so repeated escape solves on a warm
   workspace allocate nothing. *)
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
  overlay_roles ~grid roles ~pins requests;
  roles

(* Two [compute_roles] layers of one grid and [claimed] differ only on
   pins and start cells, so one becomes the other by resetting
   [from_pins] and [from]'s start cells to their claimed-or-boundary role
   and overlaying the new pins and starts: O(pins + start cells). *)
let retarget_roles ~grid ~claimed roles ~from_pins ~from ~pins requests =
  let reset p =
    if Routing_grid.in_bounds grid p then begin
      let i = Routing_grid.index grid p in
      let ordinary =
        Routing_grid.free_i grid i
        && (not (Routing_grid.on_boundary_i grid i))
        && not (Point.Set.mem p claimed)
      in
      Packed_roles.set roles i (if ordinary then role_ordinary else role_excluded)
    end
  in
  List.iter reset from_pins;
  List.iter (fun r -> List.iter reset r.start_cells) from;
  overlay_roles ~grid roles ~pins requests

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

(* The seed BFS's word for a reached cell (int slot 4): its distance in
   the low [label_shift] bits and, above them, the label of the pin whose
   front reached it, so a discovered cell's word is its parent's plus
   one. A negative word is a cell no pin reached: -1 untouched, -2 - [l]
   labelled [l] by the grouping. *)
let label_shift = 32
let dist_mask = (1 lsl label_shift) - 1

(* One BFS step of [seed_bfs] from a cell with word [wu] onto cell [j],
   with [tail] the FIFO's end: an undiscovered ordinary cell gets word
   [wu + 1] and joins the FIFO; a reached one (ordinary or pin) whose
   label differs joins [wu]'s region, unless both cells are pins (the
   only cells at distance 0), which no arc links. Returns the new end. *)
let[@inline] seed_visit roles d queue uf wu j tail =
  let wj = Array.unsafe_get d j in
  if wj < 0 then
    if Packed_roles.get roles j = role_ordinary then begin
      Array.unsafe_set d j (wu + 1);
      Array.unsafe_set queue tail j;
      tail + 1
    end
    else tail
  else begin
    if (wu lxor wj) lsr label_shift <> 0 && (wu lor wj) land dist_mask <> 0 then
      ignore (Union_find.union uf (wu lsr label_shift) (wj lsr label_shift) : bool);
    tail
  end

(* The seed's BFS, one multi-source BFS over cells from the pins through
   ordinary cells, as one flat loop over two leased int arrays: words in
   int slot 4 and the FIFO in slot 5, with the four neighbours written
   out in [Routing_grid.iter_neighbours4] order, so a step costs array
   reads and no call. Ordinary cells are interior (no role layer puts
   one on the ring), so only a pin, at distance 0, pays a division for
   its column and can lack a neighbour. Pins are labels
   0 .. [npins - 1] in push order; the union-find has [spare] more. It
   ticks the budget once per pop, the final empty one included, so a
   budget trips where a deque BFS's would, and returns, for the caller
   to charge, the work a deque BFS charges: one search and reset, a push
   per pin and discovered cell, a pop per cell and a touch per in-grid
   neighbour. *)
let seed_bfs ws ~grid ~roles ~pins ~spare =
  let cells = Routing_grid.cells grid in
  let w = Routing_grid.width grid in
  let budget = W.budget ws in
  let d = W.scratch_int ws ~slot:4 ~cells and queue = W.scratch_int ws ~slot:5 ~cells in
  Array.fill d 0 cells (-1);
  let uf = Union_find.create (List.length pins + spare) in
  let tail = ref 0 in
  List.iter
    (fun p ->
       if Routing_grid.in_bounds grid p then begin
         let i = Routing_grid.index grid p in
         if Packed_roles.get roles i = role_pin && d.(i) < 0 then begin
           d.(i) <- !tail lsl label_shift;
           queue.(!tail) <- i;
           incr tail
         end
       end)
    pins;
  let npins = !tail and head = ref 0 in
  while Pacor_route.Budget.tick budget && !head < !tail do
    let u = Array.unsafe_get queue !head in
    incr head;
    let wu = Array.unsafe_get d u in
    let x = if wu land dist_mask = 0 then u mod w else 1 and t = !tail in
    let t = if x + 1 < w then seed_visit roles d queue uf wu (u + 1) t else t in
    let t = if x > 0 then seed_visit roles d queue uf wu (u - 1) t else t in
    let t = if u + w < cells then seed_visit roles d queue uf wu (u + w) t else t in
    tail := if u >= w then seed_visit roles d queue uf wu (u - w) t else t
  done;
  let touched = ref (4 * !head) in
  for k = 0 to min !head npins - 1 do
    let u = queue.(k) in
    List.iter (fun off -> if off then decr touched)
      [ u mod w = w - 1; u mod w = 0; u + w >= cells; u < w ]
  done;
  ( d, uf, npins,
    { Stats.zero with
      Stats.searches = 1; resets = 1; pops = !head; pushes = !tail; touched = !touched;
      relaxations = !tail - npins } )

(* Goal-direction seed for [Mcmf_grid.seed], read off the BFS words [d].
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
let heights ~grid ~roles d requests =
  let cells = Routing_grid.cells grid in
  let dist i =
    let w = Array.unsafe_get d i in
    if w < 0 then -1 else w land dist_mask
  in
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

let seed_heights ws ~grid ~roles ~pins requests =
  let d, _, _, work = seed_bfs ws ~grid ~roles ~pins ~spare:0 in
  Stats.charge (W.stats ws) work;
  heights ~grid ~roles d requests

(* Escape groups for [solve_once] (see the interface for the linking
   rule), read off the seed BFS's labels: the BFS has already united the
   regions of the pins it reached. What is left is O(start cells) but
   for pockets: a live start is a fresh label joined with those of its
   ordinary and pin neighbours, an ordinary neighbour no pin reached
   first floods its pinless pocket under a fresh label (slot 5 is the
   stack), and a request joins its starts. Pocket and start cells keep
   their label as a negative word, which [heights] reads as unreached (a
   start's own word is never read). *)
let group_requests ws ~grid ~roles ~pins requests =
  let nstarts = List.fold_left (fun acc r -> acc + List.length r.start_cells) 0 requests in
  (* Fresh labels: at most four pockets and one own label per start. *)
  let d, uf, npins, work = seed_bfs ws ~grid ~roles ~pins ~spare:(5 * nstarts) in
  let h = heights ~grid ~roles d requests in
  let role i = Packed_roles.get roles i in
  let nlabels = ref npins in
  let fresh () = incr nlabels; !nlabels - 1 in
  let label w = if w >= 0 then w lsr label_shift else -2 - w in
  let stack = W.scratch_int ws ~slot:5 ~cells:(Routing_grid.cells grid) in
  let sp = ref 0 in
  let mark l j = d.(j) <- -2 - l; stack.(!sp) <- j; incr sp in
  let flood s l =
    mark l s;
    while !sp > 0 do
      decr sp;
      Routing_grid.iter_neighbours4 grid stack.(!sp) (fun j ->
        if d.(j) = -1 && role j = role_ordinary then mark l j)
    done
  in
  let start_label i =
    if d.(i) = -1 then begin
      let l = fresh () in
      d.(i) <- -2 - l;
      Routing_grid.iter_neighbours4 grid i (fun j ->
        let r = role j in
        if r = role_ordinary || r = role_pin then begin
          if d.(j) = -1 then flood j (fresh ());
          ignore (Union_find.union uf l (label d.(j)) : bool)
        end)
    end;
    label d.(i)
  in
  let index_with_role r p =
    if Routing_grid.in_bounds grid p then begin
      let i = Routing_grid.index grid p in
      if role i = r then i else -1
    end
    else -1
  in
  let first r =
    List.fold_left
      (fun l p ->
         let i = index_with_role role_start p in
         if i < 0 then l
         else if l < 0 then start_label i
         else (ignore (Union_find.union uf l (start_label i) : bool); l))
      (-1) r.start_cells
  in
  let firsts = Array.of_list (List.map first requests) in
  let gid_of_root = Array.make !nlabels (-1) and ngroups = ref 0 in
  let gid =
    Array.map
      (fun l ->
         if l < 0 then 0
         else begin
           let root = Union_find.find uf l in
           if gid_of_root.(root) < 0 then begin
             gid_of_root.(root) <- !ngroups;
             incr ngroups
           end;
           gid_of_root.(root)
         end)
      firsts
  in
  if !ngroups <= 1 then begin
    Stats.charge (W.stats ws) work;
    (h, None)
  end
  else begin
    let group_pins = Array.make !ngroups [] in
    List.iter
      (fun p ->
         let i = index_with_role role_pin p in
         if i >= 0 then begin
           let g = gid_of_root.(Union_find.find uf (label d.(i))) in
           if g >= 0 then group_pins.(g) <- p :: group_pins.(g)
         end)
      (List.rev pins);
    (h, Some (gid, group_pins))
  end

(* One min-cost-flow solve over one joint network, no decomposition:
   [solve_once] composes these, and each adds its routed requests to
   [routed_tbl]. Inputs are assumed validated; [roles] is [compute_roles]
   of exactly these requests and their pins, and [seed], when given, is
   [seed_heights] of them. *)
let solve_joint ~alive ws ~grid ~roles ~seed requests routed_tbl =
  let cells = Routing_grid.cells grid in
  let nreq = List.length requests in
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
  let node_paths = Mcmf_grid.decompose_paths net in
  (* Map each unit path back to its request (second node is the cluster
     node) and to grid points (in/out pairs collapse). *)
  let request_arr = Array.of_list requests in
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
    node_paths

(* Independent escape subnetworks: requests whose reachable regions share
   no cell cannot exchange flow, so the joint min-cost flow is the union
   of the per-group flows. With two or more groups ([group_requests], on
   the joint seed's BFS) each is solved in turn on one workspace, over
   the joint role layer retargeted to it and restored after; requests and
   pins keep input order within their group. One group (the common case:
   chips have connected free space) is the joint solve on that BFS. A
   solve of two or more requests is seeded; one request is a single
   shortest-path search with nothing to amortise the seed over. Under
   real budget limits nothing is grouped, so a budgeted solve trips its
   budget where the joint solve does. *)
let solve_once ~alive ?workspace ~grid ~claimed ~pins requests =
  let ws = match workspace with Some ws -> ws | None -> W.create () in
  let roles = compute_roles ~workspace:ws ~grid ~claimed ~pins requests in
  let tbl = Hashtbl.create 16 in
  let solve ~seed reqs = solve_joint ~alive ws ~grid ~roles ~seed reqs tbl in
  let seeded reqs = List.compare_length_with reqs 2 >= 0 in
  let seed ~pins reqs =
    if seeded reqs then Some (seed_heights ws ~grid ~roles ~pins reqs) else None
  in
  let budget_free =
    Pacor_route.Budget.is_no_limits (Pacor_route.Budget.limits_of (W.budget ws))
  in
  (if not (budget_free && seeded requests) then solve ~seed:(seed ~pins requests) requests
   else
     match group_requests ws ~grid ~roles ~pins requests with
     | h, None -> solve ~seed:(Some h) requests
     | _, Some (gid, group_pins) ->
       Array.iteri
         (fun g gpins ->
            let greqs = List.filteri (fun k _ -> gid.(k) = g) requests in
            retarget_roles ~grid ~claimed roles ~from_pins:pins ~from:requests ~pins:gpins greqs;
            solve ~seed:(seed ~pins:gpins greqs) greqs)
         group_pins;
       retarget_roles ~grid ~claimed roles ~from_pins:pins ~from:requests ~pins requests);
  let routed = List.filter_map (fun r -> Hashtbl.find_opt tbl r.cluster_idx) requests in
  { routed;
    failed =
      List.filter_map
        (fun r -> if Hashtbl.mem tbl r.cluster_idx then None else Some r.cluster_idx)
        requests;
    total_length = List.fold_left (fun acc r -> acc + Path.length r.path) 0 routed }

let route ?(alive = fun () -> true) ?workspace ~grid ~claimed ~pins requests =
  match validate ~grid ~pins requests with
  | Error _ as e -> e
  | Ok () -> Ok (solve_once ~alive ?workspace ~grid ~claimed ~pins requests)
