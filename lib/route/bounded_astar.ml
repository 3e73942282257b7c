open Pacor_grid

(* Per-cell visit entries: G value and parent slot, drawn from the
   workspace's flat pool ([cell * max_visits + k]) — no per-visit
   allocation, and appending is O(1) (the old representation grew a fresh
   array per visit, O(k^2) per cell). Every stored entry's parent chain is
   a simple path (checked at insertion), so reconstruction never fails. G
   strictly decreases along parents, so chains terminate. Dedup on G scans
   the cell's fill count, which is capped at [max_visits_per_cell].

   Like [Astar], the inner loop works on dense cell indices: row-stride
   neighbour iteration, index-based [usable], and a Manhattan heuristic
   computed from index arithmetic. *)

let attempt ws ~grid ~usable ~max_visits_per_cell ~pop_budget ~source ~target ~min_length =
  begin
    let cells = Routing_grid.cells grid in
    let width = Routing_grid.width grid in
    let budget = if pop_budget > 0 then pop_budget else 50 * cells in
    Workspace.begin_bounded ws ~cells ~max_visits_per_cell;
    let source_i = Routing_grid.index grid source in
    let target_i = Routing_grid.index grid target in
    let tx = target_i mod width and ty = target_i / width in
    (* Priority: estimated total when feasible, otherwise mirrored around
       the bound so that longer prefixes come first (the paper's penalty
       for estimates below the bound). *)
    let prio g i =
      let est = g + abs ((i mod width) - tx) + abs ((i / width) - ty) in
      if est >= min_length then est else (2 * min_length) - est
    in
    let enterable i = usable i || i = source_i || i = target_i in
    (* Does cell index [i] already appear in the parent chain of [slot]? *)
    let rec on_chain i slot =
      i = Workspace.entry_cell ws slot
      ||
      match Workspace.entry_parent ws slot with
      | -1 -> false
      | parent -> on_chain i parent
    in
    let add_entry i g parent =
      let count = Workspace.entry_count ws i in
      let rec dup k =
        k < count && (Workspace.entry_g ws (Workspace.entry_slot ws ~cell:i k) = g || dup (k + 1))
      in
      if count >= max_visits_per_cell then -1
      else if dup 0 then -1
      else if parent >= 0 && on_chain i parent then -1
      else Workspace.append_entry ws ~cell:i ~g ~parent
    in
    let reconstruct slot =
      let rec go slot acc =
        let p = Routing_grid.point_of_index grid (Workspace.entry_cell ws slot) in
        match Workspace.entry_parent ws slot with
        | -1 -> p :: acc
        | parent -> go parent (p :: acc)
      in
      go slot []
    in
    (match add_entry source_i 0 (-1) with
     | -1 -> ()
     | slot -> Workspace.push ws ~prio:(prio 0 source_i) slot);
    let stats = Workspace.stats ws in
    let cur_slot = ref (-1) and cur_g = ref 0 in
    let relax j =
      Search_stats.touched stats;
      if enterable j then begin
        Search_stats.relaxed stats;
        let g' = !cur_g + 1 in
        match add_entry j g' !cur_slot with
        | -1 -> ()
        | slot' -> Workspace.push ws ~prio:(prio g' j) slot'
      end
    in
    let pops = ref 0 in
    let rec loop () =
      if !pops >= budget then None
      else begin
        let slot = Workspace.pop_cell ws in
        if slot < 0 then None
        else begin
          incr pops;
          let i = Workspace.entry_cell ws slot in
          let g = Workspace.entry_g ws slot in
          if i = target_i && g >= min_length then
            Some (Path.of_points (reconstruct slot))
          else if i = target_i then
            (* A too-short prefix ending at the target cannot be extended
               into a simple path that returns to the target. *)
            loop ()
          else begin
            cur_slot := slot;
            cur_g := g;
            Routing_grid.iter_neighbours4 grid i relax;
            loop ()
          end
        end
      end
    in
    loop ()
  end

let search ?workspace ~grid ~usable ?(max_visits_per_cell = 8) ?(pop_budget = 0) ~source
    ~target ~min_length () =
  if min_length < 0 then invalid_arg "Bounded_astar.search: negative bound";
  if max_visits_per_cell < 1 then
    invalid_arg "Bounded_astar.search: max_visits_per_cell < 1";
  if not (Routing_grid.in_bounds grid source && Routing_grid.in_bounds grid target) then None
  else begin
    let ws = match workspace with Some ws -> ws | None -> Workspace.create () in
    attempt ws ~grid ~usable ~max_visits_per_cell ~pop_budget ~source ~target ~min_length
  end
