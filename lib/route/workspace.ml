module Obstacle_map = Pacor_grid.Obstacle_map
module A = Bigarray.Array1

type ints = (int, Bigarray.int_elt, Bigarray.c_layout) A.t

(* -- Zeroed int arrays ---------------------------------------------------- *)

(* The node record, the owner layer and int slots 0–1 come from
   [zeroed]: a private anonymous mapping (zeroed_stubs.c), whose pages
   read zero and take no memory until first written, or, when no mapping
   can be made, an ordinary Bigarray filled with zeros. [mapping] is
   false only in tests that force the fallback. *)
external map_zeroed : int -> ints option = "pacor_zeroed_ints"

let mapping = Atomic.make true
let no_ints : ints = A.create Bigarray.int Bigarray.c_layout 0

let zeroed n =
  if n < 0 then invalid_arg "Workspace.zeroed: negative length";
  if n = 0 then no_ints
  else
    match if Atomic.get mapping then map_zeroed n else None with
    | Some a -> a
    | None ->
      let a = A.create Bigarray.int Bigarray.c_layout n in
      A.fill a 0;
      a

type t = {
  (* Node record: the per-node state every search reads, four ints per
     node at [4 * v]: stamp ([2 * epoch] once touched, + 1 once closed),
     distance, parent and a fourth field whose owner is the epoch's
     search (the flow's potentials, or A*'s marks). A grid search's node
     is its cell. Sized by the largest node count asked for — the escape
     flow's node-split network has about twice as many nodes as the grid
     has cells — with [node_slack] to spare. *)
  mutable node_cap : int;
  mutable nodes : ints;
  (* Bounded-search visit pool: entries are appended in one growing pool
     and chained per cell; a cell's newest entry is its node's distance
     field, live while its stamp is the epoch's. *)
  mutable entry_g_a : int array;
  mutable entry_parent_a : int array;
  mutable entry_cell_a : int array;
  mutable entry_next_a : int array;
  mutable entry_len : int;
  (* Owner layer: per cell, [owner_epoch lsl owner_id_bits lor id] while
     cluster [id] holds it; any other epoch reads free. [fixed] blocks
     static and reserved cells, [occupied] those and every held cell. *)
  mutable owner : ints;
  mutable owner_epoch : int;
  mutable owner_epoch_limit : int;
  mutable fixed : Obstacle_map.t;
  mutable occupied : Obstacle_map.t;
  (* Scratch pools: grid-sized arrays leased by stages that used to
     [Array.make n] per call (negotiation's claims and history, escape
     roles, the escape flow state). Int slots 0–1 are negotiation's
     zeroed arrays and read zero between its calls; slots 2–3, the escape
     seed's, are ordinary int arrays, because the seed writes slot 2 whole
     on every solve and its BFS reads an int array faster than a
     Bigarray. Contents of slots 2–3 and the byte slots are arbitrary
     between leases — the borrower writes each element before it reads
     it. *)
  scratch_ints : ints array;
  seed_ints : int array array;
  scratch_bs : Bytes.t array;
  (* Epoch starts at 1 so freshly zeroed stamp arrays read as stale. *)
  mutable epoch : int;
  pq : Pacor_graphs.Pqueue.t;
  (* Settle trail: the ids a search closed this epoch, in close order, so
     a caller can post-process exactly the settled set in O(settled).
     Grows on demand; reset by [begin_flow]. *)
  mutable trail : int array;
  mutable trail_len : int;
  stats : Search_stats.t;
  mutable budget : Budget.t;
  block_cut : Block_cut.t;
  (* Wall seconds of the escape solves' parts, summed: roles, seed,
     rounds, paths. *)
  escape_parts : float array;
}

let scratch_slots = 2
let scratch_byte_slots = 4

(* Owner words: a cluster id in the low [owner_id_bits] bits, the epoch
   above, up to [owner_epoch_max], so a word stays below [max_int]. *)
let owner_id_bits = 30
let owner_id_limit = 1 lsl owner_id_bits
let owner_epoch_max = (1 lsl 32) - 1

let create ?stats () =
  let stats = match stats with Some s -> s | None -> Search_stats.create () in
  {
    node_cap = 0;
    nodes = no_ints;
    entry_g_a = [||];
    entry_parent_a = [||];
    entry_cell_a = [||];
    entry_next_a = [||];
    entry_len = 0;
    owner = no_ints;
    owner_epoch = 1;
    owner_epoch_limit = owner_epoch_max;
    fixed = Obstacle_map.create ~width:1 ~height:1;
    occupied = Obstacle_map.create ~width:1 ~height:1;
    scratch_ints = Array.make scratch_slots no_ints;
    seed_ints = [| [||]; [||] |];
    scratch_bs = Array.make scratch_byte_slots Bytes.empty;
    epoch = 1;
    pq = Pacor_graphs.Pqueue.create ();
    trail = [||];
    trail_len = 0;
    stats;
    budget = Budget.unlimited ();
    block_cut = Block_cut.create ();
    escape_parts = Array.make 4 0.;
  }

let stats t = t.stats
let block_cut t = t.block_cut
let budget t = t.budget
let set_budget t b = t.budget <- b
let escape_parts t = t.escape_parts

(* The node record grows to the request plus at least [node_slack],
   rounded to a multiple of it. The escape network's node count is
   2 * cells plus one node per request plus two, and a rip-up round adds
   a request: the slack absorbs that drift, so a growth happens only for
   a larger grid and costs the new size, never a doubling. *)
let node_slack = 4096
let room n = (n + (2 * node_slack) - 1) / node_slack * node_slack

let reserve_nodes t n =
  if t.node_cap < n then begin
    let cap = room n in
    t.nodes <- zeroed (4 * cap);
    t.node_cap <- cap;
    Search_stats.grid_alloc_noted t.stats
  end

let begin_flow t ~nodes =
  reserve_nodes t nodes;
  t.epoch <- t.epoch + 1;
  Pacor_graphs.Pqueue.clear t.pq;
  t.trail_len <- 0;
  t.entry_len <- 0;
  Search_stats.started t.stats;
  Search_stats.reset_noted t.stats

let begin_search t ~cells = begin_flow t ~nodes:cells

let node_record t = t.nodes
let touched_stamp t = 2 * t.epoch

(* A stamp below [2 * epoch] is an earlier epoch's: the node reads
   untouched. *)
let dist t i = if t.nodes.{4 * i} >= 2 * t.epoch then t.nodes.{(4 * i) + 1} else max_int

(* First touch of a node in an epoch also resets its parent, so [parent]
   never reads a stale predecessor through a fresh stamp; a closed node
   keeps its closed stamp. *)
let set_dist t i d =
  if t.nodes.{4 * i} < 2 * t.epoch then begin
    t.nodes.{4 * i} <- 2 * t.epoch;
    t.nodes.{(4 * i) + 2} <- -1
  end;
  t.nodes.{(4 * i) + 1} <- d

let parent t i = if t.nodes.{4 * i} >= 2 * t.epoch then t.nodes.{(4 * i) + 2} else -1
let set_parent t i j = t.nodes.{(4 * i) + 2} <- j
let closed t i = t.nodes.{4 * i} = (2 * t.epoch) + 1
let close t i = t.nodes.{4 * i} <- (2 * t.epoch) + 1

(* A*'s marks: field 3 holds [epoch lsl 2] plus bit 0 (target) and bit 1
   (source) once marked this epoch. No stale value reads as a mark: an
   earlier epoch's marks carry a smaller epoch, and the flow's potentials
   are never positive. *)
let marks t i =
  let m = t.nodes.{(4 * i) + 3} in
  if m lsr 2 = t.epoch then m else 0

let mark t i bit = t.nodes.{(4 * i) + 3} <- (t.epoch lsl 2) lor marks t i lor bit
let mark_target t i = mark t i 1
let is_target t i = marks t i land 1 <> 0
let mark_source t i = mark t i 2
let is_source t i = marks t i land 2 <> 0

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

(* -- Settle trail ------------------------------------------------------- *)

let grow_trail t cap =
  let b = Array.make cap 0 in
  Array.blit t.trail 0 b 0 t.trail_len;
  t.trail <- b;
  Search_stats.grid_alloc_noted t.stats

let trail_push t i =
  if t.trail_len = Array.length t.trail then grow_trail t (max 64 (2 * t.trail_len));
  t.trail.(t.trail_len) <- i;
  t.trail_len <- t.trail_len + 1

let trail_length t = t.trail_len
let trail_get t k = t.trail.(k)

(* -- Owner layer -------------------------------------------------------- *)

(* Grown here alone: only the pipeline's [load_owners] knows the grid it
   holds. An epoch past its limit wraps to 1 after zeroing the layer, so
   no word of an earlier epoch 1 reads held. *)
let load_owners t grid ~reserved =
  let cells = Pacor_grid.Routing_grid.cells grid in
  if A.dim t.owner < cells then begin
    t.owner <- zeroed cells;
    Search_stats.grid_alloc_noted t.stats
  end;
  if t.owner_epoch >= t.owner_epoch_limit then begin
    A.fill t.owner 0;
    t.owner_epoch <- 1
  end
  else t.owner_epoch <- t.owner_epoch + 1;
  let fixed = Pacor_grid.Routing_grid.fresh_work_map grid in
  Pacor_geom.Point.Set.iter (Obstacle_map.block fixed) reserved;
  t.fixed <- fixed;
  t.occupied <- Obstacle_map.copy fixed

let occupied t = t.occupied

let owner_i t i =
  let w = t.owner.{i} in
  if w lsr owner_id_bits = t.owner_epoch then w land (owner_id_limit - 1) else -1

(* The cell's dense index, [-1] out of bounds. *)
let cell t (p : Pacor_geom.Point.t) =
  if Obstacle_map.in_bounds t.occupied p then (p.y * Obstacle_map.width t.occupied) + p.x else -1

let occupy t ~id p =
  if id < 0 || id >= owner_id_limit then invalid_arg "Workspace.occupy: cluster id out of range";
  let i = cell t p in
  if i >= 0 then begin
    t.owner.{i} <- (t.owner_epoch lsl owner_id_bits) lor id;
    Obstacle_map.block t.occupied p
  end

let vacate t ~id p =
  let i = cell t p in
  if i >= 0 && owner_i t i = id then begin
    t.owner.{i} <- 0;
    if Obstacle_map.free t.fixed p then Obstacle_map.unblock t.occupied p
  end

let fold_owned t f acc =
  let width = Obstacle_map.width t.occupied in
  let acc = ref acc in
  for i = 0 to (width * Obstacle_map.height t.occupied) - 1 do
    let id = owner_i t i in
    if id >= 0 then acc := f (Pacor_geom.Point.make (i mod width) (i / width)) id !acc
  done;
  !acc

(* -- Bounded-search visit pool ------------------------------------------ *)

let entry_head t i = if t.nodes.{4 * i} = 2 * t.epoch then t.nodes.{(4 * i) + 1} else -1
let entry_next t slot = t.entry_next_a.(slot)
let entry_cell t slot = t.entry_cell_a.(slot)
let entry_g t slot = t.entry_g_a.(slot)
let entry_parent t slot = t.entry_parent_a.(slot)

(* The pool doubles from 64 slots and keeps its entries: a search appends
   while it runs, so a growth copies the live prefix. *)
let grow_pool t =
  let cap = max 64 (2 * t.entry_len) in
  let grow a =
    let b = Array.make cap 0 in
    Array.blit a 0 b 0 t.entry_len;
    b
  in
  t.entry_g_a <- grow t.entry_g_a;
  t.entry_parent_a <- grow t.entry_parent_a;
  t.entry_cell_a <- grow t.entry_cell_a;
  t.entry_next_a <- grow t.entry_next_a;
  Search_stats.grid_alloc_noted t.stats

let append_entry t ~cell ~g ~parent =
  if t.entry_len = Array.length t.entry_g_a then grow_pool t;
  let slot = t.entry_len in
  t.entry_g_a.(slot) <- g;
  t.entry_parent_a.(slot) <- parent;
  t.entry_cell_a.(slot) <- cell;
  t.entry_next_a.(slot) <- entry_head t cell;
  t.nodes.{4 * cell} <- 2 * t.epoch;
  t.nodes.{(4 * cell) + 1} <- slot;
  t.entry_len <- slot + 1;
  slot

(* -- Scratch pools ------------------------------------------------------ *)

(* Grow to [room] of the request, or by a quarter when that is more: the
   escape network's per-node leases are megabytes on large grids and
   their size drifts with the request count between rip-up rounds, which
   the slack absorbs; doubling would strand half of each array. *)
let grown cur len = max (room len) (cur + (cur / 4))

(* Int slots 0–2 hold one int per cell and grow to the request exactly;
   only the escape FIFO in slot 3 queues a request's start cells past the
   grid, so it alone takes the slack. *)
let fifo_slot = 3

let scratch_int t ~slot ~cells =
  if slot < 0 || slot >= scratch_slots then invalid_arg "Workspace.scratch_int: bad slot";
  let cur = A.dim t.scratch_ints.(slot) in
  if cur < cells then begin
    t.scratch_ints.(slot) <- zeroed cells;
    Search_stats.grid_alloc_noted t.stats
  end;
  t.scratch_ints.(slot)

let scratch_array t ~slot ~cells =
  if slot < 2 || slot > fifo_slot then invalid_arg "Workspace.scratch_array: bad slot";
  let cur = Array.length t.seed_ints.(slot - 2) in
  if cur < cells then begin
    t.seed_ints.(slot - 2) <- Array.make (if slot = fifo_slot then grown cur cells else cells) 0;
    Search_stats.grid_alloc_noted t.stats
  end;
  t.seed_ints.(slot - 2)

let scratch_bytes t ~slot ~len =
  if slot < 0 || slot >= scratch_byte_slots then
    invalid_arg "Workspace.scratch_bytes: bad slot";
  let cur = Bytes.length t.scratch_bs.(slot) in
  if cur < len then begin
    t.scratch_bs.(slot) <- Bytes.create (grown cur len);
    Search_stats.grid_alloc_noted t.stats
  end;
  t.scratch_bs.(slot)

(* -- One-time growth ---------------------------------------------------- *)

(* Grow the node record to the escape network over the grid (2 * cells +
   2 nodes; [node_slack] covers the request nodes), the escape seed's two
   int slots to the grid and the settle trail to [node_slack] entries, in
   one allocation event each, so routing a 1000x1000+ instance on a
   reused workspace never reallocates them mid-run and a later, smaller
   instance reuses them untouched. The visit pool grows by what searches
   append, the trail past its first [node_slack] entries by what a round
   settles. *)
let prepare t ~cells =
  reserve_nodes t ((2 * cells) + 2);
  ignore (scratch_array t ~slot:2 ~cells : int array);
  ignore (scratch_array t ~slot:fifo_slot ~cells : int array);
  if Array.length t.trail < node_slack then grow_trail t node_slack

let bytes t =
  let ints a = 8 * Array.length a and mapped a = 8 * A.dim a in
  let map m = (Obstacle_map.width m * Obstacle_map.height m + 7) / 8 in
  mapped t.nodes + mapped t.owner + ints t.trail + map t.fixed + map t.occupied
  + ints t.entry_g_a + ints t.entry_parent_a + ints t.entry_cell_a + ints t.entry_next_a
  + (16 * Pacor_graphs.Pqueue.capacity t.pq)
  + Array.fold_left (fun acc a -> acc + mapped a) 0 t.scratch_ints
  + Array.fold_left (fun acc a -> acc + ints a) 0 t.seed_ints
  + Array.fold_left (fun acc b -> acc + Bytes.length b) 0 t.scratch_bs

module Private = struct
  let set_mapping on = Atomic.set mapping on

  let set_owner_epoch_limit t n =
    if n < 1 || n > owner_epoch_max then
      invalid_arg "Workspace.Private.set_owner_epoch_limit: out of range";
    t.owner_epoch_limit <- n
end
