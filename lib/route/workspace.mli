(** Reusable search state for the grid routers.

    {!Astar.search} used to allocate three grid-sized arrays and two
    [Point.Set]s per call; {!Negotiation.route} calls it once per edge per
    iteration, so a full PACOR run performed O(gamma x edges x cells)
    allocation before any real work. A workspace preallocates that state
    once per routed problem and hands it to every search.

    Reset is O(1) by generation stamping: {!begin_search} bumps an integer
    epoch instead of refilling arrays, and a cell's entry is live only when
    its stamp equals the current epoch — stale entries read as their
    defaults ([max_int] distance, [-1] parent, not closed, not a member).
    The priority queue is cleared and reused, and the bounded-length
    searcher's per-cell visit entries draw from a flat pool indexed by
    [cell * max_visits + k], so no per-visit allocation happens either.

    A workspace is single-threaded and non-reentrant: one search at a time.
    Every operation below is O(1). *)

type t

val create : ?stats:Search_stats.t -> unit -> t
(** Empty workspace; arrays grow on first use and then stick. Pass [stats]
    to share one counter set across several workspaces (rarely needed —
    {!stats} exposes the implicit one). *)

val stats : t -> Search_stats.t
(** The counter set every search on this workspace accumulates into. *)

val block_cut : t -> Block_cut.t
(** The tables {!Bounded_astar}'s hopelessness certificate runs on:
    {!Block_cut.default_cap}-sized, allocated on first use and then reused. *)

val budget : t -> Budget.t
(** The budget every search on this workspace is charged against.
    Defaults to {!Budget.unlimited}. *)

val set_budget : t -> Budget.t -> unit
(** Attach a budget for subsequent searches. The engine installs one per
    run and restores the previous budget on exit; once the budget is
    exhausted, {!pop_cell} reports an empty queue so every in-flight and
    future search fails fast along its ordinary no-route path. *)

val begin_search : t -> cells:int -> unit
(** Start a plain A* search over a [cells]-cell grid: ensures capacity,
    bumps the epoch (invalidating all per-cell state), clears the queue. *)

val begin_bounded : t -> cells:int -> max_visits_per_cell:int -> unit
(** Start a bounded-length search: like {!begin_search} but also sizes the
    visit-entry pool to [cells * max_visits_per_cell] slots. *)

(** {2 Per-cell A* state (valid between [begin_*] calls)} *)

val dist : t -> int -> int
(** [max_int] when the cell is untouched this epoch. *)

val set_dist : t -> int -> int -> unit

val parent : t -> int -> int
(** [-1] when the cell is untouched this epoch. *)

val set_parent : t -> int -> int -> unit

val closed : t -> int -> bool
val close : t -> int -> unit

val mark_target : t -> int -> unit
val is_target : t -> int -> bool
val mark_source : t -> int -> unit
val is_source : t -> int -> bool

(** {2 Shared priority queue (instrumented)} *)

val push : t -> prio:int -> int -> unit

val pop_cell : t -> int
(** The popped element alone, [-1] when the queue is empty {e or} the
    attached budget is exhausted — callers cannot (and need not) tell the
    difference; element ids are always non-negative. Allocation-free:
    the searchers' hot path. *)

(** {2 Shared 0-1-BFS deque (instrumented)}

    A circular int buffer for deque-based searches (the escape flow
    solver's 0-1-BFS rounds). Reset by {!begin_search} like the priority
    queue; pushes and pops feed the same {!Search_stats} counters, and
    {!deque_pop_front} charges the attached {!Budget} exactly like
    {!pop_cell} — so flow augmentation and A* expansion draw from one
    budget pool. *)

val deque_push_back : t -> int -> unit
val deque_push_front : t -> int -> unit

val deque_pop_front : t -> int
(** [-1] for "empty or budget exhausted" (element ids are always
    non-negative), mirroring {!pop_cell}. *)

val deque_is_empty : t -> bool

(** {2 Settle trail}

    An append-only int buffer for the ids a search settled this epoch, so
    a caller can revisit exactly the settled set in O(settled) rather than
    sweep every cell: the escape flow solver updates its potentials this
    way after each round. Emptied by {!begin_search}; grows on demand and
    then sticks, like the deque. *)

val trail_push : t -> int -> unit

val trail_length : t -> int

val trail_get : t -> int -> int
(** [trail_get t k] is the [k]-th id pushed this epoch, [k < trail_length t]. *)

(** {2 Claim layer (negotiation's shared cell ownership)}

    A generation-stamped replacement for the negotiation router's per-round
    [Obstacle_map.copy]: routed paths {!claim} their cells, rip-up
    {!release}s them, and {!begin_claims} starts a fresh claim generation
    in O(1). Claims live on their own epoch, so the per-search
    {!begin_search} reset leaves them untouched — one negotiation run
    performs many searches against one claim state. Counts are refcounts:
    sibling tree edges legitimately share a branch-point cell, and the
    cell stays claimed until every claimant releases it. *)

val begin_claims : t -> cells:int -> unit
(** Invalidate all claims (O(1)) and ensure capacity for [cells]. Counted
    as a reset in {!Search_stats}. *)

val claim : t -> int -> unit
(** Increment the cell's claim count (from 0 if stale). *)

val release : t -> int -> unit
(** Decrement the cell's claim count; no-op at zero or on a stale cell. *)

val claimed : t -> int -> bool
(** True iff the cell's current-generation claim count is positive. *)

(** {2 Bounded-search visit entries}

    Entries live in a flat pool; a slot id is [cell * max_visits + k] with
    [k < entry_count cell]. The workspace stores mechanism only — dedup and
    simple-path policy stay in {!Bounded_astar}. *)

val entry_count : t -> int -> int
(** Entries recorded for a cell this epoch. *)

val entry_slot : t -> cell:int -> int -> int
(** [entry_slot t ~cell k] is the slot id of the cell's [k]-th entry. *)

val entry_cell : t -> int -> int
(** The cell a slot belongs to. *)

val entry_g : t -> int -> int
val entry_parent : t -> int -> int
(** Parent slot id, [-1] for the search root. *)

val append_entry : t -> cell:int -> g:int -> parent:int -> int
(** Unchecked append (caller enforces [entry_count < max_visits_per_cell]);
    returns the new slot id. *)

(** {2 One-time growth} *)

val prepare : t -> cells:int -> unit
(** Grow every per-cell array (and the bounded-search entry pool at the
    default visit stride) to [cells] in one step. The engine calls this
    once per run with the instance's cell count, so 1000x1000+ grids pay a
    single allocation event on a cold workspace and none at all on a warm
    one — a batch worker's workspace grows monotonically across
    differently-sized problems and never shrinks. *)

(** {2 Scratch pools}

    Grid-sized arrays leased by stages that historically allocated per
    call. Apart from int slots 0–3, contents are arbitrary between leases:
    the borrower must fill every element it later reads. Arrays grow
    monotonically (by at least a quarter; a grown int array reads zero) and
    are shared by slot, so two concurrent borrowers of one slot would
    corrupt each other — the workspace is single-threaded, as documented
    above. Slot owners:
    - int slots 0–3: {!Negotiation}'s history, cost, owner and bump-round
      arrays. They belong to {!Negotiation} alone and read zero, over
      their whole length, between its calls: each call zeroes the cells
      it wrote before it returns or raises, so it never fills the grid;
    - int slots 4 and 5: each escape seed's BFS
      ([Pacor_flow.Escape.seed_heights]), one int per cell: in slot 4 a
      word per cell, its distance to the nearest pin with the label of
      that pin's front above it, and in slot 5 the FIFO. The grouping
      ([Pacor_flow.Escape.group_requests]) reads the labels right after
      the joint seed's BFS, writes pocket and start labels into slot 4
      and floods pinless pockets with slot 5 as its stack. A seed's slot
      4 is read until its solve returns. Slot 5 also lists the cells
      {!with_interior_free_mask} cleared, while its [f] runs;
    - int slot 6 and byte slots 1–2: the escape flow network's state
      ([Pacor_flow.Mcmf_grid.create]): potentials (slot 6) and node
      states (byte slot 2: unseen, dead or live), one per node, and the
      per-cell flow bits (byte slot 1). Slot 6 is never zero-filled: a
      node's potential is written when its state leaves unseen;
    - byte slot 0: the escape stage's packed cell roles, which the flow
      network reads while it solves; group subsolves retarget the joint
      layer in place and restore it;
    - byte slot 3: the detour stage's usable-cell mask, one byte per
      cell ([Pacor.Detour_stage]). *)

val scratch_slots : int
(** Number of independent int slots (currently 7). *)

val scratch_int : t -> slot:int -> cells:int -> int array
(** An int array of length >= [cells] for [slot] (0-based). *)

val scratch_byte_slots : int
(** Number of independent byte slots (currently 4). *)

val scratch_bytes : t -> slot:int -> len:int -> Bytes.t
(** A byte buffer of length >= [len] for [slot] (0-based). *)

val with_interior_free_mask :
  t -> Pacor_grid.Routing_grid.t -> clear:((int -> unit) -> unit) -> (Bytes.t -> 'a) -> 'a
(** [with_interior_free_mask t grid ~clear f] is [f mask], where [mask]
    holds [Routing_grid.fill_interior_free grid] ('\001' for a free
    interior cell) minus the cells [clear] passes to its argument, by
    dense index. The workspace keeps the mask between calls and refills
    it only when [grid] is not the previous call's grid (by physical
    identity), which is sound because a grid's static map never changes
    once built. The cleared cells are listed in int slot 5 and set back
    when [f] returns or raises, so a call costs O(cleared), not O(grid):
    the rematch pass's single escapes ([Pacor.Escape_stage.single]) clear
    their claimed cells this way. Not re-entrant, and [f] must not lease
    int slot 5. *)
