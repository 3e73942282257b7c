open Pacor_geom
open Pacor_grid

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
let role_excluded = 0  (* obstacle, non-pin boundary, foreign claim *)
let role_ordinary = 1  (* free interior transit cell *)
let role_pin = 2       (* candidate control pin: sink only *)
let role_start = 3     (* claimed cell usable as some cluster's source *)

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
        (Pacor_route.Workspace.scratch_bytes ws ~len:(Packed_roles.bytes_needed cells))
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

(* Shared network layout: node-split grid (cell i -> nodes 2i / 2i+1) plus
   one node per request and a super source/sink. [emit] is called once per
   arc with (src, dst, cost), in a deterministic order — row-major cells,
   neighbours in [Routing_grid.iter_neighbours4] order, then request arcs
   in input order — which both the two-pass CSR builder and the
   decomposition tie-break rely on. *)
let emit_network ~grid ~roles requests ~emit =
  let cells = Routing_grid.cells grid in
  let nreq = List.length requests in
  let source = (2 * cells) + nreq and sink = (2 * cells) + nreq + 1 in
  for i = 0 to cells - 1 do
    let role = Packed_roles.get roles i in
    if role <> role_excluded then begin
      let out_node = (2 * i) + 1 in
      if role = role_pin then emit (2 * i) sink 0
      else begin
        if role = role_ordinary then emit (2 * i) out_node 0;
        Routing_grid.iter_neighbours4 grid i (fun j ->
          let rj = Packed_roles.get roles j in
          if rj = role_ordinary || rj = role_pin then emit out_node (2 * j) 1)
      end
    end
  done;
  List.iteri
    (fun k r ->
       emit source ((2 * cells) + k) 0;
       List.iter
         (fun p -> emit ((2 * cells) + k) ((2 * Routing_grid.index grid p) + 1) 0)
         r.start_cells)
    requests

let build_grid_network ~grid ~roles requests =
  let cells = Routing_grid.cells grid in
  let nreq = List.length requests in
  let n = (2 * cells) + nreq + 2 in
  let source = (2 * cells) + nreq and sink = (2 * cells) + nreq + 1 in
  let net =
    Mcmf_grid.build ~n ~source ~sink
      ~emit_arcs:(fun f ->
        emit_network ~grid ~roles requests
          ~emit:(fun src dst cost -> f ~src ~dst ~cost))
  in
  (net, source, sink)

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

let feasibility_bound ?workspace ~grid ~claimed ~pins requests =
  match validate ~grid ~pins requests with
  | Error _ -> 0
  | Ok () ->
    let roles = compute_roles ?workspace ~grid ~claimed ~pins requests in
    let net, _source, _sink = build_grid_network ~grid ~roles requests in
    Mcmf_grid.max_flow ?workspace net

type solver =
  | Dijkstra
  | Spfa
  | Grid

(* One min-cost-flow solve over one joint network, no decomposition:
   [solve_once] composes these. Inputs are assumed validated. *)
let solve_joint ~alive ?workspace ~solver ~grid ~claimed ~pins requests =
    let cells = Routing_grid.cells grid in
    let nreq = List.length requests in
    let n = (2 * cells) + nreq + 2 in
    let beta = (4 * cells) + 16 in
    (* The paper's [-beta] reward per routed path is realised as a stopping
       threshold: augment while a path still costs less than beta, which is
       larger than any possible augmenting-path cost — so the flow first
       maximises the number of routed clusters, then total length. *)
    let roles = compute_roles ?workspace ~grid ~claimed ~pins requests in
    let node_paths =
      match solver with
      | Grid ->
        let net, _source, _sink = build_grid_network ~grid ~roles requests in
        let (_ : Mcmf_grid.outcome) =
          Mcmf_grid.solve ~alive ?workspace ~stop_when_cost_reaches:beta net
        in
        Mcmf_grid.decompose_paths net
      | Dijkstra ->
        let net = Mcmf.create n in
        let emit src dst cost = Mcmf.add_edge net ~src ~dst ~cap:1 ~cost in
        emit_network ~grid ~roles requests ~emit;
        let source = (2 * cells) + nreq and sink = (2 * cells) + nreq + 1 in
        let _outcome = Mcmf.solve ~alive ~stop_when_cost_reaches:beta net ~source ~sink in
        Mcmf.decompose_paths net ~source ~sink
      | Spfa ->
        let net = Mcmf_spfa.create n in
        let emit src dst cost = Mcmf_spfa.add_edge net ~src ~dst ~cap:1 ~cost in
        emit_network ~grid ~roles requests ~emit;
        let source = (2 * cells) + nreq and sink = (2 * cells) + nreq + 1 in
        let _outcome =
          Mcmf_spfa.solve ~alive ~stop_when_cost_reaches:beta net ~source ~sink
        in
        Mcmf_spfa.decompose_paths net ~source ~sink
    in
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
   network is exactly the union of the flows over the per-component
   subnetworks. [solve_once] finds the components (union-find over the
   role graph, following exactly the arcs [emit_network]
   would emit), and when there are at least two it solves each
   subinstance separately — in parallel when a scheduler is supplied,
   sequentially otherwise, with identical results either way: requests
   and pins keep input order within their group, groups merge in
   first-request order, and each subsolve runs on a leased scratch
   workspace whose stats are absorbed in group order in both modes.

   The single-group case (the common one: chips have connected free
   space) runs the historical joint solve on the caller's workspace,
   byte-for-byte. Decomposition is disabled when the caller's workspace
   carries real budget limits: subsolves on leased workspaces would not
   charge the budget, and a budget trip depends on operation order. *)
let solve_once ~alive ?sched ?workspace ~solver ~grid ~claimed ~pins requests =
  let joint () = solve_joint ~alive ?workspace ~solver ~grid ~claimed ~pins requests in
  let budget_free =
    match workspace with
    | None -> true
    | Some ws ->
      Pacor_route.Budget.is_no_limits
        (Pacor_route.Budget.limits_of (Pacor_route.Workspace.budget ws))
  in
  let req_arr = Array.of_list requests in
  let nreq = Array.length req_arr in
  if (not budget_free) || nreq < 2 then joint ()
  else begin
    let cells = Routing_grid.cells grid in
    let roles = compute_roles ?workspace ~grid ~claimed ~pins requests in
    let parent = Array.init cells (fun i -> i) in
    let find i =
      let r = ref i in
      while parent.(!r) <> !r do
        r := parent.(!r)
      done;
      let j = ref i in
      while parent.(!j) <> !r do
        let next = parent.(!j) in
        parent.(!j) <- !r;
        j := next
      done;
      !r
    in
    let union i j =
      let ri = find i and rj = find j in
      if ri <> rj then parent.(ri) <- rj
    in
    (* Mirror [emit_network]'s connectivity: cells with out-arcs (ordinary
       and start) link to enterable neighbours (ordinary and pin). Pins
       emit only into the sink, so they join a component but never bridge
       two. *)
    for i = 0 to cells - 1 do
      let role = Packed_roles.get roles i in
      if role = role_ordinary || role = role_start then
        Routing_grid.iter_neighbours4 grid i (fun j ->
          let rj = Packed_roles.get roles j in
          if rj = role_ordinary || rj = role_pin then union i j)
    done;
    (* A request's node fans out to all its live start cells, fusing their
       components; a request with no live start is dead and rides along
       with the first group, where the subsolve reports it failed exactly
       as the joint solve would. *)
    let live = Array.make nreq (-1) in
    Array.iteri
      (fun k (r : request) ->
        List.iter
          (fun p ->
            if Routing_grid.in_bounds grid p then begin
              let i = Routing_grid.index grid p in
              if Packed_roles.get roles i = role_start then
                if live.(k) < 0 then live.(k) <- i else union live.(k) i
            end)
          r.start_cells)
      req_arr;
    let gid_of_root = Hashtbl.create 16 in
    let ngroups = ref 0 in
    let gid = Array.make nreq 0 in
    Array.iteri
      (fun k root ->
        if root >= 0 then begin
          let r = find root in
          match Hashtbl.find_opt gid_of_root r with
          | Some g -> gid.(k) <- g
          | None ->
            Hashtbl.add gid_of_root r !ngroups;
            gid.(k) <- !ngroups;
            incr ngroups
        end)
      live;
    if !ngroups <= 1 then joint ()
    else begin
      let ng = !ngroups in
      let group_reqs = Array.make ng [] in
      for k = nreq - 1 downto 0 do
        group_reqs.(gid.(k)) <- req_arr.(k) :: group_reqs.(gid.(k))
      done;
      let group_pins = Array.make ng [] in
      List.iter
        (fun p ->
          if Routing_grid.in_bounds grid p then begin
            let i = Routing_grid.index grid p in
            if Packed_roles.get roles i = role_pin then
              match Hashtbl.find_opt gid_of_root (find i) with
              | Some g -> group_pins.(g) <- p :: group_pins.(g)
              | None -> ()
              (* A pin no live request can reach: it carries no flow in the
                 joint network either; dropping it changes nothing. *)
          end)
        (List.rev pins);
      let outcomes = Array.make ng None in
      let solve_group g =
        let lws = Pacor_route.Workspace_pool.acquire ~cells in
        let before = Pacor_route.Search_stats.snapshot (Pacor_route.Workspace.stats lws) in
        let out =
          solve_joint ~alive ~workspace:lws ~solver ~grid ~claimed
            ~pins:group_pins.(g) group_reqs.(g)
        in
        let delta =
          Pacor_route.Search_stats.diff
            (Pacor_route.Search_stats.snapshot (Pacor_route.Workspace.stats lws))
            before
        in
        Pacor_route.Workspace_pool.release lws;
        outcomes.(g) <- Some (out, delta)
      in
      (match sched with
       | Some sched -> Pacor_sched.Sched.parallel_for sched ~n:ng solve_group
       | None ->
         for g = 0 to ng - 1 do
           solve_group g
         done);
      let tbl = Hashtbl.create 16 in
      let total = ref 0 in
      Array.iter
        (fun o ->
          let out, delta = Option.get o in
          (match workspace with
           | Some ws ->
             Pacor_route.Search_stats.absorb (Pacor_route.Workspace.stats ws) delta
           | None -> ());
          List.iter (fun r -> Hashtbl.replace tbl r.idx r) out.routed;
          total := !total + out.total_length)
        outcomes;
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
    end
  end

let route ?(alive = fun () -> true) ?sched ?workspace ?(solver = Grid) ~grid ~claimed ~pins
    requests =
  match validate ~grid ~pins requests with
  | Error _ as e -> e
  | Ok () -> Ok (solve_once ~alive ?sched ?workspace ~solver ~grid ~claimed ~pins requests)
