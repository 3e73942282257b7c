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

(* A static edge (a constant, never in the minor heap) to fill arrays
   with: [Array.make] or [Array.of_list] of more than 256 elements whose
   first element is young forces a minor collection, one per call. *)
let no_edge = { edge_id = -1; ends = ({ Point.x = 0; y = 0 }, { Point.x = 0; y = 0 }) }

(* Claim words: every per-cell fact of a call but the history cost, one
   int per cell, zero between calls:
     bits  0-19  owner, the last claiming edge slot plus one (0 = none);
     bits 20-39  claim count, a refcount (sibling tree edges share their
                 branch-point cells), live only in its claim round;
     bits 40-47  bumps so far, at most [max_bumps];
     bits 48-55  the negotiation round that last bumped the cell, plus
                 one (0 = never);
     bits 56-61  the claim round the count belongs to (0 = none).
   A claim round starts with each full reroute round and once for the
   incremental loop; round numbers run from 1 to [round_limit] and then
   wrap to 1, clearing every count first. *)
let field_bits = 20
let field_max = (1 lsl field_bits) - 1
let count_shift = field_bits
let bumps_shift = 2 * field_bits
let bump_round_shift = 48
let round_shift = 56
let byte_max = 255
let round_limit_max = 63
let owner_mask = field_max
let bump_round_mask = byte_max lsl bump_round_shift
let count_and_round = (field_max lsl count_shift) lor (round_limit_max lsl round_shift)
let history_bits = (byte_max lsl bumps_shift) lor bump_round_mask

let[@inline] owner_of w = w land owner_mask
let[@inline] count_of w = (w lsr count_shift) land field_max
let[@inline] bumps_of w = (w lsr bumps_shift) land byte_max
let[@inline] bump_round_of w = (w lsr bump_round_shift) land byte_max
let[@inline] round_of w = w lsr round_shift

let route_with ~round_limit ?workspace ?(config = default_config) ~grid ~obstacles edges =
  let ws = match workspace with Some ws -> ws | None -> Workspace.create () in
  let n = Routing_grid.cells grid in
  let edge_arr = Array.make (List.length edges) no_edge in
  List.iteri (fun i e -> edge_arr.(i) <- e) edges;
  let nedges = Array.length edge_arr in
  if nedges > field_max then invalid_arg "Negotiation.route: more than 2^20 - 1 edges";
  if config.gamma > byte_max then invalid_arg "Negotiation.route: gamma above 255";
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
  (* The claim words and the history costs lease workspace scratch slots
     0 and 1, which read zero between calls: a call that only touches a
     few dozen cells must not pay for a grid-sized fill. Both only ever
     change on cells a path of this call claimed, so a cell goes on
     [dirty] when its word first turns non-zero (a cell may appear more
     than once), and the [Fun.protect] below zeroes exactly those cells
     on exit, however the call ends. [hcost] stays an array of its own:
     the relax path reads it directly. *)
  let words = Workspace.scratch_int ws ~slot:0 ~cells:n in
  let hcost = Workspace.scratch_int ws ~slot:1 ~cells:n in
  let dirty = ref (Array.make 64 0) and dirty_len = ref 0 in
  let mark_dirty i =
    if !dirty_len = Array.length !dirty then begin
      let b = Array.make (2 * !dirty_len) 0 in
      Array.blit !dirty 0 b 0 !dirty_len;
      dirty := b
    end;
    Array.unsafe_set !dirty !dirty_len i;
    incr dirty_len
  in
  let bump_cell i =
    let w = words.{i} in
    let b = bumps_of w in
    if b < max_bumps then begin
      words.{i} <- w + (1 lsl bumps_shift);
      Bigarray.Array1.unsafe_set hcost i cost_of_bumps.(b + 1)
    end
  in
  (* Routed paths claim their cells (the replacement for a per-round
     [Obstacle_map.copy]), and a claim records the claiming edge slot as
     the cell's owner, so conflict analysis can find who to rip. Shared
     branch-point cells are refcounted; their owner is the last claimant
     (a deliberate heuristic — ripping either sibling frees the contended
     region). *)
  let round = ref 0 in
  let claimed i =
    let w = Bigarray.Array1.unsafe_get words i in
    round_of w = !round && count_of w > 0
  in
  let new_claim_round () =
    Search_stats.reset_noted (Workspace.stats ws);
    if !round >= round_limit then begin
      for k = 0 to !dirty_len - 1 do
        let i = Array.unsafe_get !dirty k in
        words.{i} <- words.{i} land lnot count_and_round
      done;
      round := 1
    end
    else incr round
  in
  let claim_path slot path =
    List.iter
      (fun p ->
         let i = idx p in
         let w = words.{i} in
         if w = 0 then mark_dirty i;
         let c = if round_of w = !round then count_of w else 0 in
         words.{i} <-
           w land history_bits
           lor (!round lsl round_shift)
           lor ((c + 1) lsl count_shift)
           lor (slot + 1))
      (Path.points path)
  in
  let release_path slot path =
    List.iter
      (fun p ->
         let i = idx p in
         let w = words.{i} in
         let w = if claimed i then w - (1 lsl count_shift) else w in
         words.{i} <- (if owner_of w = slot + 1 then w land lnot owner_mask else w))
      (Path.points path)
  in
  let spec =
    { Astar.usable = (fun i -> Obstacle_map.free_i obstacles i && not (claimed i));
      extra_cost = (fun i -> Bigarray.Array1.unsafe_get hcost i) }
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
      new_claim_round ();
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
          for k = 0 to failed_len - 1 do
            let s = failed_buf.(k) in
            match search_edge ideal_spec edge_arr.(s) with
            | None -> hopeless.(s) <- true
            | Some ideal ->
              order.(!next_len) <- s;
              incr next_len;
              let a, b = edge_arr.(s).ends in
              let ai = idx a and bi = idx b in
              List.iter
                (fun q ->
                   let i = idx q in
                   if i <> ai && i <> bi && claimed i then begin
                     (* A round bumps each cell at most once, even when
                        several ideal paths cross it. *)
                     let w = words.{i} in
                     if bump_round_of w <> r + 1 then begin
                       words.{i} <-
                         w land lnot bump_round_mask lor ((r + 1) lsl bump_round_shift);
                       bump_cell i
                     end;
                     let o = owner_of words.{i} - 1 in
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
          done;
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
  let clear_dirty () =
    for k = 0 to !dirty_len - 1 do
      let i = Array.unsafe_get !dirty k in
      words.{i} <- 0;
      hcost.{i} <- 0
    done;
    dirty_len := 0
  in
  (* Leave slots 0 and 1 zero, also when a search raises. *)
  Fun.protect ~finally:clear_dirty @@ fun () ->
  match config.mode with
  | Full_reroute ->
    new_claim_round ();
    full_loop 0 initial
  | Incremental ->
    new_claim_round ();
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
          !ok)
    in
    if provably_no_worse () then inc
    else begin
      (* No certificate: also run the baseline from scratch — fresh
         history, input order — and keep the better outcome. Multi-round
         history pressure in the baseline can settle on globally shorter
         configurations than conflict-local bumping. *)
      clear_dirty ();
      Array.fill paths 0 nedges None;
      Array.fill hopeless 0 nedges false;
      reset_order ();
      let base = full_loop 0 initial in
      if better base inc then base else inc
    end

let route = route_with ~round_limit:round_limit_max

module Private = struct
  let route ~round_limit =
    if round_limit < 1 || round_limit > round_limit_max then
      invalid_arg "Negotiation.Private.route: round_limit outside [1, 63]";
    route_with ~round_limit
end
