open Pacor_geom
open Pacor_grid

type edge = {
  edge_id : int;
  ends : Point.t * Point.t;
}

type mode =
  | Incremental
  | Full_reroute

type config = {
  base_history : float;
  alpha : float;
  gamma : int;
  mode : mode;
}

let default_config = { base_history = 1.0; alpha = 0.1; gamma = 10; mode = Incremental }

type outcome = {
  paths : (int * Path.t) list;
  success : bool;
  iterations : int;
}

let total_length paths =
  List.fold_left (fun acc (_, p) -> acc + Path.length p) 0 paths

(* Keep the iteration that routes more edges; on equal coverage, the one
   with the smaller total wirelength ((count, length) lexicographic — a
   plain count comparison used to discard equal-coverage iterations that
   negotiation had nudged onto shorter paths). *)
let better (a : outcome) (b : outcome) =
  let ca = List.length a.paths and cb = List.length b.paths in
  ca > cb || (ca = cb && total_length a.paths < total_length b.paths)

let route ?sched ?workspace ?(config = default_config) ~grid ~obstacles edges =
  let ws = match workspace with Some ws -> ws | None -> Workspace.create () in
  let n = Routing_grid.cells grid in
  let edge_arr = Array.of_list edges in
  let nedges = Array.length edge_arr in
  (* The engine strips the scheduler whenever a search budget is armed:
     a budget trip depends on interleaving. *)
  let par =
    match sched with
    | Some s when nedges >= 2 -> Some s
    | _ -> None
  in
  let idx p = Routing_grid.index grid p in
  (* History per Eq. (5): after k bumps a cell costs
     b * (1 + alpha + ... + alpha^(k-1)). A round bumps a cell at most
     once and there are at most [gamma] rounds, so the whole fixed-point
     cost ladder is precomputable — the relax path reads one int, with no
     per-relax float multiply + truncation. The ladder runs the same float
     recurrence the per-cell update used to, so the costs are bit-identical
     to the old implementation. *)
  let max_bumps = max config.gamma 1 in
  let cost_of_bumps = Array.make (max_bumps + 1) 0 in
  let () =
    let h = ref 0.0 in
    for k = 1 to max_bumps do
      h := config.base_history +. (config.alpha *. !h);
      cost_of_bumps.(k) <- int_of_float (!h *. float_of_int Astar.cost_scale)
    done
  in
  (* The four grid-sized per-cell arrays lease workspace scratch slots
     instead of allocating per call: at 1000x1000+ cells the old
     [Array.make]s dominated negotiation setup and GC churn. An explicit
     fill of the leading [n] cells (memset-speed) replaces the allocator's
     zeroing. *)
  let bumps = Workspace.scratch_int ws ~slot:0 ~cells:n in
  let hcost = Workspace.scratch_int ws ~slot:1 ~cells:n in
  Array.fill bumps 0 n 0;
  Array.fill hcost 0 n 0;
  let bump_cell i =
    if bumps.(i) < max_bumps then begin
      bumps.(i) <- bumps.(i) + 1;
      Array.unsafe_set hcost i cost_of_bumps.(bumps.(i))
    end
  in
  (* Routed paths claim their cells in the workspace's claim layer (the
     replacement for the per-round [Obstacle_map.copy]); [owner] remembers
     the claiming edge slot so conflict analysis can find who to rip.
     Shared branch-point cells are refcounted; their owner is the last
     claimant (a deliberate heuristic — ripping either sibling frees the
     contended region). *)
  let owner = Workspace.scratch_int ws ~slot:2 ~cells:n in
  Array.fill owner 0 n (-1);
  let claim_path slot path =
    List.iter
      (fun p ->
         let i = idx p in
         Workspace.claim ws i;
         owner.(i) <- slot)
      (Path.points path)
  in
  let release_path slot path =
    List.iter
      (fun p ->
         let i = idx p in
         Workspace.release ws i;
         if owner.(i) = slot then owner.(i) <- -1)
      (Path.points path)
  in
  let spec =
    { Astar.usable =
        (fun i -> Obstacle_map.free_i obstacles i && not (Workspace.claimed ws i));
      extra_cost = (fun i -> Array.unsafe_get hcost i) }
  in
  (* The "ideal" spec ignores claims: where a failed edge's unconstrained
     best path crosses claimed cells is exactly the conflict to negotiate
     over. An edge whose ideal search fails is structurally unroutable
     (claims only shrink the search space), so retrying it is pointless. *)
  let ideal_spec =
    { Astar.usable = (fun i -> Obstacle_map.free_i obstacles i);
      extra_cost = spec.Astar.extra_cost }
  in
  let search_edge spec e =
    let a, b = e.ends in
    Astar.search ~workspace:ws ~grid ~spec ~sources:[ a ] ~targets:[ b ] ()
  in
  (* Per-slot round state, all preallocated: [paths] is the current routed
     path per edge slot; [order] the routing order of the coming round
     (satellite: replaces the old per-round [failed @ List.map fst routed]
     list churn); [failed_buf]/[routed_buf]/[rip_buf] are scratch. *)
  let paths = Array.make (max nedges 1) None in
  let hopeless = Array.make (max nedges 1) false in
  let order = Array.make (max nedges 1) 0 in
  let failed_buf = Array.make (max nedges 1) 0 in
  let routed_buf = Array.make (max nedges 1) 0 in
  let rip_buf = Array.make (max nedges 1) 0 in
  let ripped = Array.make (max nedges 1) false in
  let order_len = ref nedges in
  let reset_order () =
    for s = 0 to nedges - 1 do
      order.(s) <- s
    done;
    order_len := nedges
  in
  reset_order ();
  (* Which round last bumped a cell — a round bumps each cell at most once
     even when several ideal paths cross it. *)
  let bump_round = Workspace.scratch_int ws ~slot:3 ~cells:n in
  Array.fill bump_round 0 n (-1);
  (* Outcome of the current [paths] array, in input (slot) order. *)
  let snapshot r =
    let acc = ref [] in
    for s = nedges - 1 downto 0 do
      match paths.(s) with
      | Some p -> acc := (edge_arr.(s).edge_id, p) :: !acc
      | None -> ()
    done;
    let routed = !acc in
    { paths = routed; success = List.length routed = nedges; iterations = r }
  in
  let initial = { paths = []; success = nedges = 0; iterations = 0 } in
  (* Route the slots in [order], claiming as we go; fills
     [failed_buf]/[routed_buf] (hopeless slots are skipped entirely).
     Returns (failed_len, routed_len). *)
  let run_round () =
    let failed_len = ref 0 and routed_len = ref 0 in
    for k = 0 to !order_len - 1 do
      let s = order.(k) in
      if not hopeless.(s) then begin
        match search_edge spec edge_arr.(s) with
        | Some p ->
          paths.(s) <- Some p;
          claim_path s p;
          routed_buf.(!routed_len) <- s;
          incr routed_len
        | None ->
          failed_buf.(!failed_len) <- s;
          incr failed_len
      end
    done;
    (!failed_len, !routed_len)
  in
  (* -- Full reroute: the paper's Algorithm 1, byte-identical to the
        historical implementation (every edge rerouted every round, history
        bumped along every routed path), with the claim layer standing in
        for the per-round obstacle-map copy. *)
  let rec full_loop r best =
    if r >= config.gamma || not (Budget.note_iteration (Workspace.budget ws)) then
      { best with iterations = r }
    else begin
      Workspace.begin_claims ws ~cells:n;
      Array.fill paths 0 nedges None;
      let failed_len, routed_len = run_round () in
      let result = snapshot (r + 1) in
      if failed_len = 0 then result
      else begin
        for k = 0 to routed_len - 1 do
          match paths.(routed_buf.(k)) with
          | Some p -> List.iter (fun q -> bump_cell (idx q)) (Path.points p)
          | None -> ()
        done;
        let best = if better result best then result else best in
        (* Failed edges route first next round (see the .mli note); both
           groups keep this round's relative order. *)
        let m = ref 0 in
        for k = 0 to failed_len - 1 do
          order.(!m) <- failed_buf.(k);
          incr m
        done;
        for k = 0 to routed_len - 1 do
          order.(!m) <- routed_buf.(k);
          incr m
        done;
        full_loop (r + 1) best
      end
    end
  in
  (* -- Incremental: round 1 is identical to the full reroute; afterwards
        paths of undisturbed edges persist (claims and all) and only dirty
        edges — this round's failures plus the owners ripped from under
        their ideal paths — re-enter the next round. *)
  let rec inc_loop r best =
    if r >= config.gamma || not (Budget.note_iteration (Workspace.budget ws)) then
      { best with iterations = r }
    else begin
      let failed_len, _routed_len = run_round () in
      let result = snapshot (r + 1) in
      if result.success then result
      else begin
        let best = if better result best then result else best in
        if failed_len = 0 then
          (* Every missing edge is hopeless; nothing left to negotiate. *)
          { best with iterations = r + 1 }
        else begin
          (* Conflict analysis: bump history where ideal paths cross
             claims, rip the claim owners. Own endpoints are skipped —
             the failed search exempts them, so claims there (sibling
             branch points) never caused the failure. *)
          let rip_len = ref 0 in
          let next_len = ref 0 in
          (* Cells bumped since the current speculation window's probes
             ran; a pending probe that touched none of them saw exactly
             the history the sequential flow would show it. *)
          let bumped = ref [] in
          let apply s probe =
            match probe with
            | None -> hopeless.(s) <- true
            | Some ideal ->
              order.(!next_len) <- s;
              incr next_len;
              let a, b = edge_arr.(s).ends in
              let ai = idx a and bi = idx b in
              List.iter
                (fun q ->
                   let i = idx q in
                   if i <> ai && i <> bi && Workspace.claimed ws i then begin
                     if bump_round.(i) <> r then begin
                       bump_round.(i) <- r;
                       bump_cell i;
                       bumped := i :: !bumped
                     end;
                     let o = owner.(i) in
                     if o >= 0 && not ripped.(o) then begin
                       (match paths.(o) with
                        | Some p ->
                          release_path o p;
                          paths.(o) <- None;
                          ripped.(o) <- true;
                          rip_buf.(!rip_len) <- o;
                          incr rip_len
                        | None -> ())
                     end
                   end)
                (Path.points ideal)
          in
          (match par with
           | None ->
             for k = 0 to failed_len - 1 do
               let s = failed_buf.(k) in
               apply s (search_edge ideal_spec edge_arr.(s))
             done
           | Some sched ->
             (* Speculative parallel ideal probes. Phase A runs a window
                of probes concurrently, each on a leased scratch
                workspace, against the frozen history array ([hcost] is
                only written in phase B). Phase B walks the window in
                [failed_buf] order: a probe is adopted verbatim — its
                search stats absorbed as if it had run on [ws] — unless
                some cell bumped earlier in the window was touched by
                its search (the touched set over-approximates every cell
                whose cost the search read), in which case the probe is
                discarded, unabsorbed, and the search re-runs on [ws]
                against live history. Either way the path, the bumps and
                the stats are bit-identical to the sequential flow.
                Windowing bounds the leased workspaces held at once. *)
             let window = 2 * Pacor_sched.Sched.domains sched in
             let k0 = ref 0 in
             while !k0 < failed_len do
               let base = !k0 in
               let b = min window (failed_len - base) in
               let wss = Array.init b (fun _ -> Workspace_pool.acquire ~cells:n) in
               let probes = Array.make b None in
               Pacor_sched.Sched.parallel_for sched ~n:b (fun j ->
                 let lws = wss.(j) in
                 let e = edge_arr.(failed_buf.(base + j)) in
                 let before = Search_stats.snapshot (Workspace.stats lws) in
                 let p1, p2 = e.ends in
                 let p =
                   Astar.search ~workspace:lws ~grid ~spec:ideal_spec
                     ~sources:[ p1 ] ~targets:[ p2 ] ()
                 in
                 let delta =
                   Search_stats.diff
                     (Search_stats.snapshot (Workspace.stats lws))
                     before
                 in
                 probes.(j) <- Some (p, delta));
               bumped := [];
               for j = 0 to b - 1 do
                 let s = failed_buf.(base + j) in
                 let lws = wss.(j) in
                 let p, delta = Option.get probes.(j) in
                 let valid =
                   List.for_all (fun i -> not (Workspace.touched lws i)) !bumped
                 in
                 if valid then begin
                   Search_stats.absorb (Workspace.stats ws) delta;
                   apply s p
                 end
                 else apply s (search_edge ideal_spec edge_arr.(s));
                 Workspace_pool.release lws
               done;
               k0 := base + b
             done);
          if !rip_len = 0 then
            (* No claim owner could be identified: the next round would
               face the same claims and fail the same way. *)
            { best with iterations = r + 1 }
          else begin
            for k = 0 to !rip_len - 1 do
              order.(!next_len) <- rip_buf.(k);
              incr next_len;
              ripped.(rip_buf.(k)) <- false
            done;
            order_len := !next_len;
            inc_loop (r + 1) best
          end
        end
      end
    end
  in
  match config.mode with
  | Full_reroute ->
    Workspace.begin_claims ws ~cells:n;
    full_loop 0 initial
  | Incremental ->
    Workspace.begin_claims ws ~cells:n;
    let inc = inc_loop 0 initial in
    (* When is the incremental outcome {e provably} no worse than the full
       reroute ((routed, length) lexicographic)? Round-1 success is the
       baseline's own round 1, byte for byte. Beyond that, certify by lower
       bound: every routing's per-edge length is at least that edge's
       unconstrained (obstacle-only) shortest length, so if the incremental
       total {e equals} the sum of those ideals, nothing can beat it. The
       certificate costs one plain A* per edge — far less than rerunning
       the baseline on the congested instances where incremental wins. *)
    let provably_no_worse () =
      inc.success
      && (inc.iterations <= 1
          ||
          (* Per-edge: is every routed path at its unconstrained-shortest
             length? A path already at the Manhattan distance of its
             endpoints is ideal by inspection — no search needed; only
             paths forced around obstacles pay one plain A* each. *)
          let plain = Astar.obstacle_spec obstacles in
          match par with
          | None ->
            let ok = ref true in
            for s = 0 to nedges - 1 do
              if !ok then
                match paths.(s) with
                | None -> ok := false
                | Some p ->
                  let len = Path.length p in
                  let a, b = edge_arr.(s).ends in
                  if len <> Point.manhattan a b then
                    (match search_edge plain edge_arr.(s) with
                     | Some q -> if len <> Path.length q then ok := false
                     | None -> ok := false)
            done;
            !ok
          | Some sched ->
            (* The sequential scan short-circuits: it searches each
               non-trivial slot in order until one fails, and never
               searches past a missing path. Reproduce that exactly:
               probe the searchable prefix in windows (the plain spec
               reads only immutable obstacles, so probes are always
               valid), absorb each probe's stats in slot order up to and
               including the first failure, and discard the rest. *)
            let first_none = ref nedges in
            (try
               for s = 0 to nedges - 1 do
                 match paths.(s) with
                 | None ->
                   first_none := s;
                   raise Exit
                 | Some _ -> ()
               done
             with Exit -> ());
            let cand = ref [] in
            for s = !first_none - 1 downto 0 do
              match paths.(s) with
              | Some p
                when Path.length p
                     <> (let a, b = edge_arr.(s).ends in
                         Point.manhattan a b) ->
                cand := s :: !cand
              | Some _ | None -> ()
            done;
            let cand = Array.of_list !cand in
            let ncand = Array.length cand in
            let window = 2 * Pacor_sched.Sched.domains sched in
            let searches_ok = ref true in
            let k0 = ref 0 in
            while !searches_ok && !k0 < ncand do
              let base = !k0 in
              let b = min window (ncand - base) in
              let wss = Array.init b (fun _ -> Workspace_pool.acquire ~cells:n) in
              let probes = Array.make b None in
              Pacor_sched.Sched.parallel_for sched ~n:b (fun j ->
                let lws = wss.(j) in
                let e = edge_arr.(cand.(base + j)) in
                let before = Search_stats.snapshot (Workspace.stats lws) in
                let p1, p2 = e.ends in
                let p =
                  Astar.search ~workspace:lws ~grid ~spec:plain
                    ~sources:[ p1 ] ~targets:[ p2 ] ()
                in
                let delta =
                  Search_stats.diff
                    (Search_stats.snapshot (Workspace.stats lws))
                    before
                in
                probes.(j) <- Some (Option.map Path.length p, delta));
              for j = 0 to b - 1 do
                (match probes.(j) with
                 | Some (qlen, delta) when !searches_ok ->
                   Search_stats.absorb (Workspace.stats ws) delta;
                   let s = cand.(base + j) in
                   let len =
                     match paths.(s) with
                     | Some p -> Path.length p
                     | None -> assert false
                   in
                   (match qlen with
                    | Some ql -> if len <> ql then searches_ok := false
                    | None -> searches_ok := false)
                 | _ -> ());
                Workspace_pool.release wss.(j)
              done;
              k0 := base + b
            done;
            !searches_ok && !first_none = nedges)
    in
    if provably_no_worse () then inc
    else begin
      (* No certificate: also run the baseline from scratch — fresh
         history, input order — and keep the better outcome. Multi-round
         history pressure in the baseline can settle on globally shorter
         configurations than conflict-local bumping. *)
      Array.fill bumps 0 n 0;
      Array.fill hcost 0 n 0;
      Array.fill paths 0 nedges None;
      Array.fill hopeless 0 nedges false;
      reset_order ();
      let base = full_loop 0 initial in
      if better base inc then base else inc
    end
