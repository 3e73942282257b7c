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
    searcher's visit entries are appended to one pool that grows by
    doubling and then sticks, so no per-visit allocation happens either.

    Each array is only as large as the searches that read it: the node
    record grows to the largest node count asked for — the escape flow's
    node-split network has about twice as many nodes as cells — while the
    target, source, visit-head and claim layers stay at grid cells.

    A workspace is single-threaded and non-reentrant: one search at a time.
    Every operation below is O(1), except the growth, load and fold
    calls, which say what they cost. *)

type t

val create : ?stats:Search_stats.t -> unit -> t
(** Empty workspace; arrays grow on first use and then stick. Pass [stats]
    to share one counter set across several workspaces (rarely needed —
    {!stats} exposes the implicit one). *)

val stats : t -> Search_stats.t
(** The counter set every search on this workspace accumulates into. *)

val block_cut : t -> Block_cut.t
(** The tables {!Bounded_astar}'s hopelessness certificate runs on:
    256-cell, allocated on first use and then reused. *)

val budget : t -> Budget.t
(** The budget every search on this workspace is charged against.
    Defaults to {!Budget.unlimited}. *)

val set_budget : t -> Budget.t -> unit
(** Attach a budget for subsequent searches. The engine installs one per
    run and restores the previous budget on exit; once the budget is
    exhausted, {!pop_cell} reports an empty queue so every in-flight and
    future search fails fast along its ordinary no-route path. *)

val begin_search : t -> cells:int -> unit
(** Start a plain A* search over a [cells]-cell grid: ensures node and
    cell capacity, bumps the epoch (invalidating all per-cell state),
    clears the queue. *)

val begin_flow : t -> nodes:int -> unit
(** Start a search over [nodes] graph nodes that reads only the per-node
    state ({!dist}, {!parent}, {!closed}), the queues and the trail — the
    escape flow's rounds. Node capacity grows to [nodes] plus at least
    4096 to spare (rounded to a multiple of 4096), so a network that
    gains a few request nodes between rip-up rounds never regrows it;
    the cell layers are not touched. *)

val begin_bounded : t -> cells:int -> unit
(** Start a bounded-length search over a [cells]-cell grid: ensures cell
    capacity, bumps the epoch and empties the visit-entry pool. Reads no
    per-node state. *)

(** {2 Per-node search state (valid between [begin_*] calls)}

    One int array, four fields per node [v]: at [4v] a stamp ([2 * epoch]
    once {!set_dist} touched [v] this epoch, [+ 1] once closed; smaller
    is stale, read as untouched), then the distance, the parent (reset to
    [-1] by the epoch's first {!set_dist}) and a field no [begin_*]
    resets, where [Pacor_flow.Mcmf_grid] keeps its potentials across
    rounds (arbitrary until written; zeroed by a growth). Close a node
    only after {!set_dist} in the same epoch, as {!Astar} and [Mcmf_grid]
    do: an untouched node closed would read its stale distance.
    {!set_dist} on a closed node keeps it closed. *)

val dist : t -> int -> int
(** [max_int] when the node is untouched this epoch. *)

val set_dist : t -> int -> int -> unit

val parent : t -> int -> int
(** [-1] when the node is untouched this epoch. *)

val set_parent : t -> int -> int -> unit

val closed : t -> int -> bool
val close : t -> int -> unit

val node_record : t -> int array
(** The record, for a search loop that reads and writes it without calls:
    [4 * nodes] long or more after [begin_flow ~nodes]; a growth replaces
    it, so read it again after each [begin_*]. *)

val touched_stamp : t -> int
(** [2 * epoch]. *)

val mark_target : t -> int -> unit
val is_target : t -> int -> bool
val mark_source : t -> int -> unit
val is_source : t -> int -> bool

val escape_parts : t -> float array
(** Wall seconds of the escape solves on this workspace, summed per part:
    role fill, seed BFS, flow rounds (with the network's set-up) and path
    walk, at indices 0–3. [Pacor_flow.Escape] adds to it. *)

(** {2 Shared priority queue (instrumented)} *)

val push : t -> prio:int -> int -> unit

val pop_cell : t -> int
(** The popped element alone, [-1] when the queue is empty {e or} the
    attached budget is exhausted — callers cannot (and need not) tell the
    difference; element ids are always non-negative. Allocation-free:
    the searchers' hot path. *)

(** {2 Settle trail}

    An append-only int buffer for the ids a search settled this epoch, so
    a caller can revisit exactly the settled set in O(settled) rather than
    sweep every cell: the escape flow solver updates its potentials this
    way after each round. Emptied by every [begin_*]; doubles from 64
    entries on demand and then sticks. *)

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

(** {2 Owner layer (which cluster holds each cell)}

    The cells of every routed cluster's channels, valves and escape path,
    by cluster id. The stages after cluster routing route one cluster
    against everything the others hold: the layer with that cluster
    vacated for one attempt. A pipeline loads it once and edits it in
    O(cells changed). It is separate from the claim layer above, which
    {!Negotiation} restarts on every call; loading charges no
    {!Search_stats} reset. A cell has one owner, the last to {!occupy}
    it. *)

val load_owners : t -> Pacor_grid.Routing_grid.t -> reserved:Pacor_geom.Point.Set.t -> unit
(** A new generation for [grid], every cell free; {!occupied} blocks the
    static obstacles and [reserved] (valve and pin cells: blocked whoever
    holds them). Two obstacle-bitmap copies, O(cells / 8). *)

val occupy : t -> id:int -> Pacor_geom.Point.t -> unit
val vacate : t -> id:int -> Pacor_geom.Point.t -> unit
(** Cluster [id] (non-negative) holds the cell, or frees it if it holds
    it. Out-of-bounds cells are ignored. *)

val occupied : t -> Pacor_grid.Obstacle_map.t
(** Static obstacles, reserved and held cells blocked; edited in place,
    so read or copy it, never write it. *)

val fold_owned : t -> (Pacor_geom.Point.t -> int -> 'a -> 'a) -> 'a -> 'a
(** The held cells and their owners, in dense index order (one pass over
    the grid). *)

(** {2 Bounded-search visit entries}

    Entries are appended to one pool, emptied by every [begin_*], and
    chained per cell, newest first: walk a cell's entries from
    {!entry_head} along {!entry_next} to [-1]. A slot id is an entry's
    append position, so ids carry no cell arithmetic. The pool doubles
    from 64 entries when full and then sticks, so its size follows what
    searches append, not the grid. The workspace stores mechanism only —
    dedup, the per-cell cap and simple-path policy stay in
    {!Bounded_astar}. *)

val entry_head : t -> int -> int
(** The cell's newest entry this epoch, [-1] when it has none. *)

val entry_next : t -> int -> int
(** The next older entry of the same cell, [-1] after the oldest. *)

val entry_cell : t -> int -> int
(** The cell an entry belongs to. *)

val entry_g : t -> int -> int
val entry_parent : t -> int -> int
(** Parent slot id, [-1] for the search root. *)

val append_entry : t -> cell:int -> g:int -> parent:int -> int
(** Append an entry (unchecked: the caller enforces its per-cell cap) and
    make it the cell's head; returns its slot id. *)

(** {2 One-time growth} *)

val prepare : t -> cells:int -> unit
(** Grow the cell layers to [cells] and the node record to the escape
    network over such a grid ([2 * cells + 2] nodes plus the slack of
    {!begin_flow}) in one step each. The engine calls this once per run
    with the instance's cell count, so 1000x1000+ grids pay a single
    allocation event per group on a cold workspace and none at all on a
    warm one — a batch worker's workspace grows monotonically across
    differently-sized problems and never shrinks. The visit pool and the
    settle trail are not grown here: they grow by what searches append. *)

(** {2 Scratch pools}

    Grid-sized arrays leased by stages that historically allocated per
    call. Apart from int slots 0–3, contents are arbitrary between leases:
    the borrower must fill every element it later reads. Arrays grow
    monotonically (by at least a quarter, and to at least 4096 entries
    past the request, the slack of {!begin_flow}, so the escape network's
    per-node leases survive a rip-up round's extra request; a grown int
    array reads zero) and
    are shared by slot, so two concurrent borrowers of one slot would
    corrupt each other — the workspace is single-threaded, as documented
    above. Slot owners:
    - int slots 0–3: {!Negotiation}'s history, cost, owner and bump-round
      arrays. They belong to {!Negotiation} alone and read zero, over
      their whole length, between its calls: each call zeroes the cells
      it wrote before it returns or raises, so it never fills the grid;
    - int slots 4 and 5: each escape seed's BFS
      ([Pacor_flow.Escape.seed_heights]), one int per cell: in slot 4
      its distance to the nearest pin (-1 unreached), in slot 5 the
      FIFO, which a one-request escape's BFS uses too. A seed's slot 4
      is read until its solve returns;
    - byte slots 1–2: the escape flow network's node states (slot 2:
      unseen, dead or live) and per-cell flow bits (slot 1)
      ([Pacor_flow.Mcmf_grid.create]);
    - byte slot 0: the escape stage's packed cell roles, which the flow
      network reads while it solves;
    - byte slot 3: the detour stage's usable-cell mask, one byte per
      cell ([Pacor.Detour_stage]). *)

val scratch_int : t -> slot:int -> cells:int -> int array
(** An int array of length >= [cells] for [slot] (0-based). *)

val scratch_bytes : t -> slot:int -> len:int -> Bytes.t
(** A byte buffer of length >= [len] for [slot] (0-based). *)
