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

    Every search keeps its per-node state in one node record, four ints
    per node, grown to the largest node count asked for — the escape
    flow's node-split network has about twice as many nodes as cells. A
    grid search's node is its cell, so A*'s target and source marks and
    the bounded search's visit heads live in the record too (see
    {!section-record} for which search owns which field). Besides the
    record and the scratch pools, the only grid-sized array is the owner
    layer.

    The record, the owner layer and negotiation's int scratch slots come
    from one allocator, {!zeroed}: each is a private anonymous memory
    mapping that reads zero everywhere and takes memory only for the
    pages a search writes, so a route keeps resident the cells it
    touches, not the grid (see {!type-ints}).

    A workspace is single-threaded and non-reentrant: one search at a time.
    Every operation below is O(1), except the growth, load and fold
    calls, which say what they cost. *)

type ints = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t
(** The workspace's grid-sized int arrays. Index them with the type
    known at the access ([.{}], [Bigarray.Array1.unsafe_get]): the
    compiler then reads them inline, without a C call. *)

val zeroed : int -> ints
(** [zeroed n]: [n] ints reading zero at every index. The array is a
    private anonymous mapping ([mmap] with [MAP_PRIVATE|MAP_ANONYMOUS]):
    a page takes memory only once it is first touched. The mapped size
    is declared to the collector, so a dropped array is finalised (and
    unmapped) as promptly as an ordinary Bigarray of that size. When no
    mapping can be made, it is an ordinary Bigarray filled with zeros.
    [zeroed 0] is one shared empty array and maps nothing. Never take a
    subarray of one. Raises [Invalid_argument] when [n < 0]. *)

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

val begin_flow : t -> nodes:int -> unit
(** Start a search over [nodes] graph nodes: bumps the epoch (every node
    reads untouched), clears the queue, the trail and the visit pool.
    Node capacity grows to [nodes] plus at least 4096 to spare (rounded
    to a multiple of 4096), so a network that gains a few request nodes
    between rip-up rounds never regrows it. *)

val begin_search : t -> cells:int -> unit
(** [begin_flow ~nodes:cells]: a grid search (A*, the bounded search)
    over a [cells]-cell grid, one node per cell. *)

(** {2:record Per-node search state (valid between [begin_*] calls)}

    One {!zeroed} int array ({!type-ints}), four fields per node [v], at
    [4v] to [4v + 3]:
    - field 0, the stamp: [2 * epoch] once touched this epoch, [+ 1] once
      closed; smaller is stale, read as untouched. Every search stamps
      it: {!set_dist} and the flow's rounds, and {!append_entry} for the
      bounded search;
    - field 1: the distance ({!dist}), or, in a bounded search's epoch,
      the cell's newest visit entry ({!entry_head});
    - field 2: the parent, reset to [-1] by the epoch's first {!set_dist};
    - field 3, owned by the epoch's search and reset by no [begin_*]:
      [Pacor_flow.Mcmf_grid]'s Johnson potentials, which it installs on
      a node's first touch in a solve and carries across that solve's
      rounds (never positive), or A*'s marks, [epoch lsl 2] plus bit 0
      (target) and bit 1 (source), read as unmarked under any other
      epoch.
    A growth replaces the record with a fresh {!zeroed} one. Close a node only after {!set_dist} in
    the same epoch, as {!Astar} and [Mcmf_grid] do: an untouched node
    closed would read its stale distance. {!set_dist} on a closed node
    keeps it closed. *)

val dist : t -> int -> int
(** [max_int] when the node is untouched this epoch. *)

val set_dist : t -> int -> int -> unit

val parent : t -> int -> int
(** [-1] when the node is untouched this epoch. *)

val set_parent : t -> int -> int -> unit

val closed : t -> int -> bool
val close : t -> int -> unit

val node_record : t -> ints
(** The record, for a search loop that reads and writes it without calls:
    [4 * nodes] long or more after [begin_flow ~nodes]; a growth replaces
    it, so read it again after each [begin_*]. *)

val touched_stamp : t -> int
(** [2 * epoch]. *)

val mark_target : t -> int -> unit
val is_target : t -> int -> bool
val mark_source : t -> int -> unit
val is_source : t -> int -> bool
(** A*'s marks on a cell, in field 3 of its node: false until marked in
    this epoch. A search that marks writes field 3 only through these. *)

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

(** {2 Owner layer (which cluster holds each cell)}

    The cells of every routed cluster's channels, valves and escape path,
    by cluster id. The stages after cluster routing route one cluster
    against everything the others hold: the layer with that cluster
    vacated for one attempt. A pipeline loads it once and edits it in
    O(cells changed). It is separate from {!Negotiation}'s claims, which
    that router keeps in its own scratch slots; loading charges no
    {!Search_stats} reset. A cell has one owner, the last to {!occupy}
    it.

    One int per cell packs the load's epoch and the owner:
    [epoch lsl 30 lor id], with [id] in \[0, 2{^30}) and the epoch in
    \[1, 2{^32}); a word of any other epoch reads free. The epoch after
    the last wraps to 1 and zeroes the layer first (O(cells), once per
    2{^32} - 1 loads). *)

val load_owners : t -> Pacor_grid.Routing_grid.t -> reserved:Pacor_geom.Point.Set.t -> unit
(** A new generation for [grid], every cell free; {!occupied} blocks the
    static obstacles and [reserved] (valve and pin cells: blocked whoever
    holds them). Two obstacle-bitmap copies, O(cells / 8). *)

val occupy : t -> id:int -> Pacor_geom.Point.t -> unit
val vacate : t -> id:int -> Pacor_geom.Point.t -> unit
(** Cluster [id] holds the cell, or frees it if it holds it.
    Out-of-bounds cells are ignored. {!occupy} raises [Invalid_argument]
    unless [0 <= id < 2{^30}]. *)

val occupied : t -> Pacor_grid.Obstacle_map.t
(** Static obstacles, reserved and held cells blocked; edited in place,
    so read or copy it, never write it. *)

val fold_owned : t -> (Pacor_geom.Point.t -> int -> 'a -> 'a) -> 'a -> 'a
(** The held cells and their owners, in dense index order (one pass over
    the grid). *)

(** {2 Bounded-search visit entries}

    Entries are appended to one pool, emptied by every [begin_*], and
    chained per cell, newest first: walk a cell's entries from
    {!entry_head} along {!entry_next} to [-1]. A cell's head is its
    node's field 1, live while the node's stamp is this epoch's (see
    {!section-record}), so a bounded search starts with {!begin_search}
    and uses no other per-node call. A slot id is an entry's
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
(** Grow the node record to the escape network over a [cells]-cell grid
    ([2 * cells + 2] nodes plus the slack of {!begin_flow}), the escape
    seed's int slots 2 and 3 to [cells] (slot 3 with the slack of
    {!begin_flow}), and the settle trail to 4096
    entries, in one step each. The engine calls this once per run with
    the instance's cell count, so 1000x1000+ grids pay a single
    allocation event per array on a cold workspace and none at all on a
    warm one — a batch worker's workspace grows monotonically across
    differently-sized problems and never shrinks. The visit pool and the
    rest of the trail grow by what searches append; the other scratch
    slots and the owner layer on first use. *)

val bytes : t -> int
(** Bytes the workspace's arrays span: the node record, the owner layer
    and its two bitmaps, the scratch slots, the trail, the visit pool and
    the queue's capacity. The {!zeroed} arrays count at their full length,
    although only their touched pages are resident. O(slots). *)

(** {2 Scratch pools}

    Grid-sized arrays leased by stages that historically allocated per
    call. Apart from int slots 0–1, contents are arbitrary between leases:
    the borrower must fill every element it later reads. Arrays grow
    monotonically: int slots 0–2 to the request exactly (one int per
    cell); int slot 3 and the byte slots by at least a quarter, and to at
    least 4096 entries past the request, the slack of {!begin_flow}, so
    the escape network's per-node leases and the FIFO's start cells
    survive a rip-up round's extra request. Slots are shared by slot, so
    two concurrent borrowers of one slot would corrupt each other — the
    workspace is single-threaded, as documented above. Slot owners:
    - int slots 0 and 1: {!Negotiation}'s packed claim words and its
      history costs (the .ml lists the layout). They belong to
      {!Negotiation} alone and read zero, over their whole length,
      between its calls: each call zeroes the cells it wrote before it
      returns or raises, so it never fills the grid. They are {!zeroed}
      arrays ({!scratch_int}), so only the pages of claimed cells are
      resident;
    - int slots 2 and 3: each escape seed's BFS
      ([Pacor_flow.Escape.seed_heights]), one int per cell: in slot 2
      its distance to the nearest pin (-1 unreached), in slot 3 the
      FIFO, which a one-request escape's BFS uses too. A seed's slot 2
      is read until its solve returns. {!prepare} leases both. They are
      ordinary int arrays ({!scratch_array}): the seed writes slot 2
      whole on every solve, so a mapping would keep nothing off the
      resident set, and its BFS reads an int array faster than a
      Bigarray;
    - byte slots 1–2: the escape flow network's node states (slot 2:
      unseen, dead or live) and per-cell flow bits (slot 1)
      ([Pacor_flow.Mcmf_grid.create]);
    - byte slot 0: the escape stage's packed cell roles, which the flow
      network reads while it solves;
    - byte slot 3: the detour stage's usable-cell mask, one byte per
      cell ([Pacor.Detour_stage]). *)

val scratch_int : t -> slot:int -> cells:int -> ints
(** A {!zeroed} int array of length >= [cells] for int slot 0 or 1; a
    growth is a fresh one. Raises [Invalid_argument] for another slot. *)

val scratch_array : t -> slot:int -> cells:int -> int array
(** An int array of length >= [cells] for int slot 2 or 3. Raises
    [Invalid_argument] for another slot. *)

val scratch_bytes : t -> slot:int -> len:int -> Bytes.t
(** A byte buffer of length >= [len] for [slot] (0-based). *)

(**/**)

(** Entry points for tests only. *)
module Private : sig
  val set_mapping : bool -> unit
  (** [set_mapping false] makes {!zeroed} take its fallback (an ordinary
      Bigarray filled with zeros) until [set_mapping true], so a test
      reaches both paths. Process-wide. *)

  val set_owner_epoch_limit : t -> int -> unit
  (** Wrap the owner epoch after [n] loads instead of 2{^32} - 1, so a
      test reaches the wrap. Raises [Invalid_argument] outside
      \[1, 2{^32} - 1\]. *)
end
