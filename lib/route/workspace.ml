type t = {
  mutable cap : int;
  mutable dist_a : int array;
  mutable parent_a : int array;
  mutable dist_stamp : int array;
  mutable closed_stamp : int array;
  mutable target_stamp : int array;
  mutable source_stamp : int array;
  (* Bounded-search visit pool: [fill] counts a cell's entries this epoch;
     slots are [cell * stride + k]. *)
  mutable fill : int array;
  mutable fill_stamp : int array;
  mutable entry_g_a : int array;
  mutable entry_parent_a : int array;
  mutable entry_cap : int;
  mutable stride : int;
  (* Claim layer: refcounted cell ownership shared by the negotiation
     rounds. Claims live on their own epoch — [begin_epoch] (one bump per
     search) must not wipe them, because one negotiation run performs many
     searches against the same claim state. *)
  mutable claim_count_a : int array;
  mutable claim_stamp : int array;
  mutable claim_epoch : int;
  (* Scratch pools: grid-sized arrays leased by stages that used to
     [Array.make n] per call (negotiation history, escape roles, the
     escape flow state). Int slots 0–3 are negotiation's and read zero
     between its calls; elsewhere contents are arbitrary between leases —
     the borrower writes each element before it reads it. *)
  scratch_ints : int array array;
  scratch_bs : Bytes.t array;
  (* [Routing_grid.fill_interior_free] of [mask_grid], which reads so
     between borrows (see [with_interior_free_mask]). *)
  mutable mask : Bytes.t;
  mutable mask_grid : Pacor_grid.Routing_grid.t option;
  (* Epoch starts at 1 so freshly zeroed stamp arrays read as stale. *)
  mutable epoch : int;
  pq : Pacor_graphs.Pqueue.t;
  (* 0-1-BFS deque: a circular int buffer reset by [begin_epoch]. It shares
     the pqueue's budget/stat discipline so a flow solver's pops charge the
     same budget as an A* search's. *)
  mutable dq : int array;
  mutable dq_head : int;
  mutable dq_len : int;
  (* Settle trail: the ids a search closed this epoch, in close order, so
     a caller can post-process exactly the settled set in O(settled).
     Grows on demand; reset by [begin_epoch]. *)
  mutable trail : int array;
  mutable trail_len : int;
  stats : Search_stats.t;
  mutable budget : Budget.t;
  block_cut : Block_cut.t;
}

let scratch_slots = 7
let scratch_byte_slots = 4

let create ?stats () =
  let stats = match stats with Some s -> s | None -> Search_stats.create () in
  {
    cap = 0;
    dist_a = [||];
    parent_a = [||];
    dist_stamp = [||];
    closed_stamp = [||];
    target_stamp = [||];
    source_stamp = [||];
    fill = [||];
    fill_stamp = [||];
    entry_g_a = [||];
    entry_parent_a = [||];
    entry_cap = 0;
    stride = 0;
    claim_count_a = [||];
    claim_stamp = [||];
    claim_epoch = 1;
    scratch_ints = Array.make scratch_slots [||];
    scratch_bs = Array.make scratch_byte_slots Bytes.empty;
    mask = Bytes.empty;
    mask_grid = None;
    epoch = 1;
    pq = Pacor_graphs.Pqueue.create ();
    dq = [||];
    dq_head = 0;
    dq_len = 0;
    trail = [||];
    trail_len = 0;
    stats;
    budget = Budget.unlimited ();
    block_cut = Block_cut.create ();
  }

let stats t = t.stats
let block_cut t = t.block_cut
let budget t = t.budget
let set_budget t b = t.budget <- b

let reserve_cells t n =
  if t.cap < n then begin
    let cap = max n (2 * t.cap) in
    t.dist_a <- Array.make cap 0;
    t.parent_a <- Array.make cap 0;
    t.dist_stamp <- Array.make cap 0;
    t.closed_stamp <- Array.make cap 0;
    t.target_stamp <- Array.make cap 0;
    t.source_stamp <- Array.make cap 0;
    t.fill <- Array.make cap 0;
    t.fill_stamp <- Array.make cap 0;
    t.claim_count_a <- Array.make cap 0;
    t.claim_stamp <- Array.make cap 0;
    t.cap <- cap;
    Search_stats.grid_alloc_noted t.stats
  end

let reserve_entries t n =
  if t.entry_cap < n then begin
    let cap = max n (2 * t.entry_cap) in
    t.entry_g_a <- Array.make cap 0;
    t.entry_parent_a <- Array.make cap (-1);
    t.entry_cap <- cap;
    Search_stats.grid_alloc_noted t.stats
  end

let begin_epoch t =
  t.epoch <- t.epoch + 1;
  Pacor_graphs.Pqueue.clear t.pq;
  t.dq_head <- 0;
  t.dq_len <- 0;
  t.trail_len <- 0;
  Search_stats.started t.stats;
  Search_stats.reset_noted t.stats

let begin_search t ~cells =
  reserve_cells t cells;
  begin_epoch t

let begin_bounded t ~cells ~max_visits_per_cell =
  reserve_cells t cells;
  reserve_entries t (cells * max_visits_per_cell);
  t.stride <- max_visits_per_cell;
  begin_epoch t

let dist t i = if t.dist_stamp.(i) = t.epoch then t.dist_a.(i) else max_int

(* First touch of a cell in an epoch also resets its parent, so [parent]
   never reads a stale predecessor through a fresh distance stamp. *)
let set_dist t i d =
  if t.dist_stamp.(i) <> t.epoch then begin
    t.dist_stamp.(i) <- t.epoch;
    t.parent_a.(i) <- -1
  end;
  t.dist_a.(i) <- d

let parent t i =
  if t.dist_stamp.(i) = t.epoch then t.parent_a.(i) else -1

let set_parent t i j =
  t.parent_a.(i) <- j

let closed t i = t.closed_stamp.(i) = t.epoch
let close t i = t.closed_stamp.(i) <- t.epoch

let mark_target t i = t.target_stamp.(i) <- t.epoch
let is_target t i = t.target_stamp.(i) = t.epoch
let mark_source t i = t.source_stamp.(i) <- t.epoch
let is_source t i = t.source_stamp.(i) = t.epoch

let push t ~prio i =
  Search_stats.pushed t.stats;
  Pacor_graphs.Pqueue.push t.pq ~prio i

(* A budget-exhausted workspace reports an empty queue: searches fail
   fast along their ordinary no-route paths, which is exactly the
   degradation chain the engine already knows how to handle. [-1] means
   "queue empty or budget exhausted"; the searchers never use the popped
   priority, so it is not returned. *)
let pop_cell t =
  if not (Budget.tick t.budget) then -1
  else if Pacor_graphs.Pqueue.is_empty t.pq then -1
  else begin
    Search_stats.popped t.stats;
    Pacor_graphs.Pqueue.pop_top t.pq
  end

(* -- 0-1-BFS deque ------------------------------------------------------ *)

(* The deque's capacity is always a power of two (64, doubling), so ring
   positions wrap with a mask instead of an integer division. *)
let deque_grow t =
  let cur = Array.length t.dq in
  let ncap = max 64 (2 * cur) in
  let b = Array.make ncap 0 in
  for k = 0 to t.dq_len - 1 do
    b.(k) <- t.dq.((t.dq_head + k) land (cur - 1))
  done;
  t.dq <- b;
  t.dq_head <- 0;
  Search_stats.grid_alloc_noted t.stats

let deque_push_back t i =
  if t.dq_len = Array.length t.dq then deque_grow t;
  let cap = Array.length t.dq in
  t.dq.((t.dq_head + t.dq_len) land (cap - 1)) <- i;
  t.dq_len <- t.dq_len + 1;
  Search_stats.pushed t.stats

let deque_push_front t i =
  if t.dq_len = Array.length t.dq then deque_grow t;
  let cap = Array.length t.dq in
  t.dq_head <- (t.dq_head + cap - 1) land (cap - 1);
  t.dq.(t.dq_head) <- i;
  t.dq_len <- t.dq_len + 1;
  Search_stats.pushed t.stats

(* Same contract as [pop_cell]: [-1] means "deque empty or budget
   exhausted", so an exhausted budget starves the flow solver's
   augmentation search exactly like it starves an A*. *)
let deque_pop_front t =
  if not (Budget.tick t.budget) then -1
  else if t.dq_len = 0 then -1
  else begin
    let x = t.dq.(t.dq_head) in
    t.dq_head <- (t.dq_head + 1) land (Array.length t.dq - 1);
    t.dq_len <- t.dq_len - 1;
    Search_stats.popped t.stats;
    x
  end

let deque_is_empty t = t.dq_len = 0

(* -- Settle trail ------------------------------------------------------- *)

let trail_push t i =
  if t.trail_len = Array.length t.trail then begin
    (* A search settles each cell at most once, so the cell capacity
       almost always fits the whole trail in one step. *)
    let b = Array.make (max t.cap (max 64 (2 * t.trail_len))) 0 in
    Array.blit t.trail 0 b 0 t.trail_len;
    t.trail <- b;
    Search_stats.grid_alloc_noted t.stats
  end;
  t.trail.(t.trail_len) <- i;
  t.trail_len <- t.trail_len + 1

let trail_length t = t.trail_len
let trail_get t k = t.trail.(k)

(* -- Claim layer -------------------------------------------------------- *)

(* Claims replace the negotiation router's per-round [Obstacle_map.copy]:
   claiming/releasing a path touches O(path) cells, and starting a fresh
   claim generation is O(1). Counts are refcounts because sibling tree
   edges legitimately share a branch-point cell. *)

let begin_claims t ~cells =
  reserve_cells t cells;
  t.claim_epoch <- t.claim_epoch + 1;
  Search_stats.reset_noted t.stats

let claim t i =
  let c = if t.claim_stamp.(i) = t.claim_epoch then t.claim_count_a.(i) else 0 in
  t.claim_stamp.(i) <- t.claim_epoch;
  t.claim_count_a.(i) <- c + 1

let release t i =
  if t.claim_stamp.(i) = t.claim_epoch && t.claim_count_a.(i) > 0 then
    t.claim_count_a.(i) <- t.claim_count_a.(i) - 1

let claimed t i = t.claim_stamp.(i) = t.claim_epoch && t.claim_count_a.(i) > 0

let entry_count t i = if t.fill_stamp.(i) = t.epoch then t.fill.(i) else 0
let entry_slot t ~cell k = (cell * t.stride) + k
let entry_cell t slot = slot / t.stride
let entry_g t slot = t.entry_g_a.(slot)
let entry_parent t slot = t.entry_parent_a.(slot)

let append_entry t ~cell ~g ~parent =
  let k = entry_count t cell in
  let slot = (cell * t.stride) + k in
  t.entry_g_a.(slot) <- g;
  t.entry_parent_a.(slot) <- parent;
  t.fill.(cell) <- k + 1;
  t.fill_stamp.(cell) <- t.epoch;
  slot

(* -- One-time growth ---------------------------------------------------- *)

(* Jump every per-cell array (and the bounded-search pool) straight to the
   target size in one allocation event, so routing a 1000x1000+ instance on
   a reused workspace never reallocates mid-run and a later, smaller
   instance reuses the grown arrays untouched. *)
let prepare t ~cells =
  reserve_cells t cells;
  reserve_entries t (cells * 8)

(* -- Scratch pools ------------------------------------------------------ *)

(* Grow by a quarter past the request: the escape network's per-node
   arrays are megabytes on large grids and their size drifts a little
   with the request count between rip-up rounds, so doubling would strand
   half of each array. *)
let grown cur len = max len (cur + (cur / 4))

let scratch_int t ~slot ~cells =
  if slot < 0 || slot >= scratch_slots then invalid_arg "Workspace.scratch_int: bad slot";
  let cur = Array.length t.scratch_ints.(slot) in
  if cur < cells then begin
    t.scratch_ints.(slot) <- Array.make (grown cur cells) 0;
    Search_stats.grid_alloc_noted t.stats
  end;
  t.scratch_ints.(slot)

let scratch_bytes t ~slot ~len =
  if slot < 0 || slot >= scratch_byte_slots then
    invalid_arg "Workspace.scratch_bytes: bad slot";
  let cur = Bytes.length t.scratch_bs.(slot) in
  if cur < len then begin
    t.scratch_bs.(slot) <- Bytes.create (grown cur len);
    Search_stats.grid_alloc_noted t.stats
  end;
  t.scratch_bs.(slot)

(* A grid's static map never changes once the grid is built (overlays
   make new grids), so a mask built for the same grid, by physical
   identity, is still exact. Int slot 5 lists the cells [clear] turned
   from usable to clear, each once, so they fit in [cells]. *)
let with_interior_free_mask t grid ~clear f =
  let cells = Pacor_grid.Routing_grid.cells grid in
  (match t.mask_grid with
   | Some g when g == grid -> ()
   | Some _ | None ->
     if Bytes.length t.mask < cells then begin
       t.mask <- Bytes.create (grown (Bytes.length t.mask) cells);
       Search_stats.grid_alloc_noted t.stats
     end;
     Pacor_grid.Routing_grid.fill_interior_free grid t.mask;
     t.mask_grid <- Some grid);
  let mask = t.mask and cleared = scratch_int t ~slot:5 ~cells in
  let n = ref 0 in
  Fun.protect
    ~finally:(fun () ->
      for k = 0 to !n - 1 do
        Bytes.unsafe_set mask cleared.(k) '\001'
      done)
    (fun () ->
      clear (fun i ->
        if Bytes.get mask i = '\001' then begin
          Bytes.unsafe_set mask i '\000';
          cleared.(!n) <- i;
          incr n
        end);
      f mask)
