(** Unit-capacity min-cost max-flow specialised for the escape network.

    The escape graph has unit capacities and arc costs of 0 or 1 only, and
    its arc set is identical for the feasibility probe and the routing
    solve. This solver exploits that: the adjacency is a CSR (compressed
    sparse row) structure with byte-packed costs and residual capacities,
    built exactly once from a deterministic arc emitter and reusable across
    solves via {!reset}; augmentation runs successive shortest paths with
    persistent Johnson potentials, with all per-round state
    generation-stamped in a {!Pacor_route.Workspace} — allocation-free
    after warm-up.

    {b Goal-directed rounds.} A caller that knows each node's exact
    distance [h] to the sink hands it over with {!seed} before solving;
    the solver then sets [pot(v) = -h(v)], a feasible potential, so every
    round is an early-exit Dijkstra on reduced costs — an A* search toward
    the sink. Nodes without an [h] are marked dead and never relaxed; no
    later residual graph reconnects them. The escape stage seeds every
    solve with two or more requests from one BFS over grid cells
    ({!Escape}); an unseeded solve starts with a 0-1-BFS over raw costs.

    {b Lazy potentials.} Each round appends the nodes it settles to the
    workspace's settle trail, and the potential update touches only
    those: O(settled) per round, not O(n). Potentials therefore differ
    from the textbook ones by a constant, which leaves reduced costs and
    paths unchanged; a path's true cost is [d + pot(sink) - pot(source)].

    Cross-checked against the general {!Mcmf} (Dijkstra) and {!Mcmf_spfa}
    solvers by the escape tests and bench: all three produce the same
    (flow, cost) optimum, with or without a cost threshold. *)

type t

type outcome = {
  flow : int;
  cost : int;
  rounds : int;  (** augmentation searches run, including the final one
                     that found no path (or hit the cost threshold); each
                     is one workspace search. *)
}

val build :
  n:int ->
  source:int ->
  sink:int ->
  emit_arcs:((src:int -> dst:int -> cost:int -> unit) -> unit) ->
  t
(** [build ~n ~source ~sink ~emit_arcs] constructs the CSR network.
    [emit_arcs emit] must call [emit ~src ~dst ~cost] once per forward arc
    (capacity 1, cost 0 or 1); it is invoked {e twice} — a counting pass
    and a fill pass — so it must emit the same arcs in the same order both
    times (a mismatch raises [Invalid_argument]). Arcs keep emission order
    within each node's CSR row; reverse arcs are interleaved at their own
    endpoints. *)

val build_on :
  Pacor_route.Workspace.t ->
  n:int ->
  source:int ->
  sink:int ->
  emit_arcs:((src:int -> dst:int -> cost:int -> unit) -> unit) ->
  t
(** [build_on ws] is {!build} with every array leased from [ws]'s scratch
    pool (int slots 4–8, byte slots 1–4) instead of freshly allocated, so
    repeated solves on a warm workspace allocate no network. The network
    aliases those slots: it stays valid only until the next [build_on] on
    the same workspace. *)

val node_count : t -> int

val arc_count : t -> int
(** Directed arcs including reverses: twice the emitted count. *)

val solve :
  ?alive:(unit -> bool) ->
  ?workspace:Pacor_route.Workspace.t ->
  ?stop_when_cost_reaches:int ->
  t ->
  outcome
(** Min-cost max-flow by successive shortest paths. [alive] is polled
    between augmentation rounds; [workspace] supplies the reusable
    dist/parent/queue/trail state (a private one is created when absent)
    and its attached {!Pacor_route.Budget} is charged one tick per settle,
    so an exhausted budget stops the solve mid-round — or before its first
    round — with the flow found so far. [stop_when_cost_reaches] stops
    {e before} augmenting a path whose true cost reaches the threshold.

    The solve adds exactly [rounds] to the workspace's [searches] counter.
    A network solves once; {!reset} re-arms it. *)

val seed : t -> h:(int -> int) -> unit
(** [seed t ~h] installs goal-directed potentials before {!solve}: [h v]
    is node [v]'s exact cost-distance to the sink in the initial residual
    graph (forward arcs only), or a negative value when [v] cannot reach
    the sink, which marks it dead. Called once per node, in node order.
    Rounds stay exact shortest-path searches only when [h] is consistent
    ([h v <= c + h w] over every arc [v -> w] of cost [c]), which an exact
    distance is; the escape stage derives it from a cell-level BFS. A
    budget-starved caller may pass a partial [h]: every later round then
    fails on its first pop. Raises [Invalid_argument] after a solve;
    {!reset} clears the seed. *)

val max_flow :
  ?alive:(unit -> bool) ->
  ?workspace:Pacor_route.Workspace.t ->
  t ->
  int
(** Max flow with costs ignored (plain BFS augmentation): the feasibility
    probe. Counts as the network's one solve; {!reset} re-arms it. *)

val reset : t -> unit
(** Restore initial capacities, zero potentials and clear dead marks,
    keeping the CSR structure — so one built network serves the
    feasibility probe, the solve, and any retry. A solve after [reset]
    runs unseeded unless {!seed} is called again. *)

val decompose_paths : t -> int list list
(** Split the computed flow into source->sink unit node-paths, consuming
    it. Deterministic tie-break: at every node the walk follows the
    lowest-CSR-index forward arc still carrying flow, i.e. the first such
    arc in emission order. Iterative — safe on paths of any length. *)
