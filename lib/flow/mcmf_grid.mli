(** Unit-capacity min-cost max-flow over the escape network, read straight
    off the cell-role layer.

    The network is a node-split grid: cell [i] is nodes [2i] (in) and
    [2i + 1] (out), request [k] is node [2 * cells + k], and the source
    and then the sink follow. All capacities are 1. Its forward arcs, in
    {e emission order}:
    - row-major over cells that are not excluded: a pin cell's
      [in(i) -> sink] (cost 0); otherwise an ordinary cell's
      [in(i) -> out(i)] (cost 0), then [out(i) -> in(j)] (cost 1) for
      each ordinary or pin neighbour [j] in
      {!Pacor_grid.Routing_grid.iter_neighbours4} order;
    - then per request [k] in input order: [source -> k] (cost 0), then
      [k -> out(s)] (cost 0) for each start cell [s] in input order.

    No arc is stored: every node's residual row is enumerated from the
    {!Pacor_grid.Packed_roles} layer and the request list, in exactly the
    order a CSR built from that emission holds it (each arc at both
    endpoints, in emission order):
    - [in(i)] of an ordinary or pin cell: reverse arcs from [out(i - w)]
      and [out(i - 1)], its own arc to [out(i)] (ordinary) or the sink
      (pin), then reverse arcs from [out(i + 1)] and [out(i + w)];
    - [out(i)]: the reverse of [in(i) -> out(i)], forward arcs to the
      neighbours [+1, -1, +w, -w], then the reverses of the request arcs
      into [out(i)] in emission order;
    - request [k]: the reverse of [source -> k], then its start cells in
      input order; the source: the request arcs in input order.

    Flow is one byte per cell — bits 0–3 for [out(i) -> in(nbr)] in that
    direction order, bit 4 for [in(i)]'s own arc — plus one byte per
    request arc and per request. All capacities are 1, so a reverse arc's
    residual capacity is its forward arc's flow.

    Augmentation runs successive shortest paths with persistent Johnson
    potentials, all per-round state generation-stamped in a
    {!Pacor_route.Workspace}: allocation-free after warm-up. The rounds
    read and write its node record directly; the potentials live in its
    fourth field, beside each node's stamp, distance and parent.

    {b Goal-directed rounds.} The caller hands each node's exact distance
    [h] to the sink over with {!seed} before solving; the solver then
    uses [pot(v) = -h(v)], a feasible potential, so every round is an
    early-exit Dijkstra on reduced costs — an A* search toward the
    sink. Nodes without an [h] are dead and never relaxed; no later
    residual graph reconnects them. [h] is read lazily: a node's
    potential (or its dead mark) is installed the first time a round
    relaxes it, the path-cost readout reads it or the potential update
    reaches it, so a solve evaluates [h] only on the nodes its rounds
    touch, once each, and neither {!create} nor {!seed} does per-node
    work. The escape stage seeds every solve, all of two or more
    requests, from one BFS over grid cells ({!Escape}); it routes a
    single request by a cell BFS of its own and never builds a network
    for it.

    {b Lazy potentials.} Each round appends the nodes it settles to the
    workspace's settle trail, and the potential update touches only
    those: O(settled) per round, not O(n). Potentials therefore differ
    from the textbook ones by a constant, which leaves reduced costs and
    paths unchanged; a path's true cost is [d + pot(sink) - pot(source)].

    The tests run the same solver over an explicit CSR of the emitted
    arcs as a differential oracle: rows, paths, rounds and search
    counters match exactly, and general min-cost-flow solvers kept in
    the tests agree on the (flow, cost) optimum. *)

(** Cell roles, the only input the arcs depend on besides the requests:
    excluded (no arcs), ordinary (transit), pin (sink only) and start
    (out-arcs only). *)

val role_excluded : int
val role_ordinary : int
val role_pin : int
val role_start : int

type t

type outcome = {
  flow : int;
  cost : int;
  rounds : int;  (** augmentation searches run, including the final one
                     that found no path (or hit the cost threshold); each
                     is one workspace search. *)
}

val create :
  ?workspace:Pacor_route.Workspace.t ->
  grid:Pacor_grid.Routing_grid.t ->
  roles:Pacor_grid.Packed_roles.t ->
  int array array ->
  t
(** [create ~grid ~roles starts] is the network of requests whose start
    cells (grid indices, duplicates allowed) are [starts.(k)]. Every start
    cell must have role start or pin, which {!Escape.compute_roles}
    guarantees; [Invalid_argument] otherwise. The network reads [roles]
    on every pop, so the layer must not change while it is in use. With
    a workspace the per-cell flow bits and node states are leased from it
    (byte slots 1 and 2) and stay valid until the next [create] on it;
    without one they are allocated. Each potential is written to the
    solving workspace's node record when its node is installed. *)

val solve :
  ?alive:(unit -> bool) ->
  ?workspace:Pacor_route.Workspace.t ->
  ?stop_when_cost_reaches:int ->
  t ->
  outcome
(** Min-cost max-flow by successive shortest paths. [alive] is polled
    between augmentation rounds; [workspace] supplies the reusable
    node record, queues and trail (a private one is created when absent)
    and its attached {!Pacor_route.Budget} is charged one tick per settle,
    so an exhausted budget stops the solve mid-round — or before its first
    round — with the flow found so far. [stop_when_cost_reaches] stops
    {e before} augmenting a path whose true cost reaches the threshold.

    The solve adds exactly [rounds] to the workspace's [searches] counter.
    A network solves once; without {!seed} every potential is 0 and
    every round a plain Dijkstra. *)

val seed : t -> h:(int -> int) -> unit
(** [seed t ~h] hands over goal-directed potentials before {!solve}:
    [h v] is node [v]'s exact cost-distance to the sink in the initial
    residual graph (forward arcs only), or a negative value when [v]
    cannot reach the sink, which marks it dead. [seed] only stores [h]:
    it is read lazily during {!solve}, at most once per node and only for
    nodes a round touches, in no fixed order, so it must stay valid until
    [solve] returns. Rounds stay exact shortest-path searches only when
    [h] is consistent ([h v <= c + h w] over every arc [v -> w] of cost
    [c]), which an exact distance is; the escape stage derives it from a
    cell-level BFS. A budget-starved caller may pass a partial [h]: every
    later round then fails on its first pop. Raises [Invalid_argument]
    after a solve. *)

val paths : t -> (int * int list) list
(** The computed flow as one [(k, cells)] per routed request [k], in
    request order: the grid cells of its unit path, start cell to pin.
    Consumes the flow. At every node the walk follows the first forward
    arc in row order still carrying flow, so the paths are a row-order
    decomposition's, each in/out pair read as its cell; a start cell
    shared by requests gives its first direction to the lowest. *)

val row : t -> int -> (int * int * int) list
(** [row t v] is node [v]'s residual row as [(head, cost, residual
    capacity)] in row order, reverse arcs included (cost [-c] for a
    forward cost [c]). For the differential tests; the solver enumerates
    rows without building lists. *)
