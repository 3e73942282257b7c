(** Escape routing: connect routed clusters to boundary control pins
    (Sec. 5 of the paper), formulated as one global min-cost flow.

    Each cluster contributes a unit of flow that may leave from any of its
    {e start cells} (the Steiner-tree root, the two-valve middle point, or
    every cell of its routed paths, per the three cases of Sec. 5), travel
    through free routing cells — each usable by at most one path, which
    keeps escape channels vertex-disjoint (constraint 12) — and terminate at
    an unused candidate control pin. Maximising the number of routed
    clusters dominates; total channel length is minimised secondarily
    (the [-beta] objective trick of the paper, with [beta] chosen larger
    than any possible augmenting-path length).

    The flow network is node-split: cell [i] is nodes [2i] (in) and
    [2i + 1] (out), request [k] is node [2 * cells + k], and the source
    and then the sink follow. {!Mcmf_grid} solves it: it reads each
    node's arcs off the cell-role layer ({!compute_roles}) instead of
    storing them. A single request's flow is one shortest path, found by
    a BFS over cells that visits them in the order the network's first
    0-1-BFS round would and charges that round's search counters. The tests keep general min-cost-flow and Dinic solvers
    over an explicit copy of the same network as oracles for the routed
    count, the total length and the max-flow bound. *)

open Pacor_geom
open Pacor_grid

type request = {
  cluster_idx : int;           (** caller's identifier, echoed in results *)
  start_cells : Point.t list;  (** cells this cluster's escape may leave from *)
}

type routed = {
  idx : int;
  start_cell : Point.t;
  pin : Point.t;
  path : Path.t;               (** from [start_cell] to [pin], inclusive *)
}

type outcome = {
  routed : routed list;        (** in input request order *)
  failed : int list;           (** cluster_idx of unrouted requests *)
  total_length : int;          (** sum of escape path lengths (edges) *)
}

val route :
  ?alive:(unit -> bool) ->
  ?workspace:Pacor_route.Workspace.t ->
  grid:Routing_grid.t ->
  occupied:Obstacle_map.t ->
  pins:Point.t list ->
  request list ->
  (outcome, string) result
(** [route ~grid ~occupied ~pins requests]: one min-cost-flow solve
    over the network of all the requests, seeded by {!seed_heights}, when
    there are two or more; one cell BFS, with the network's paths,
    counters and budget ticks, for a single request; no search for
    none. Budget limits on [workspace] only stop the
    solve early; they never change the path it takes.

    [alive] (default always true) is a cooperative cancellation hook
    polled between flow augmentations; when it turns false the solve
    stops with the clusters escaped so far and lists the rest in
    [failed] — the same shape as a congested instance.

    [workspace] supplies the reusable search state (and attached
    {!Pacor_route.Budget}) for the seed BFS and augmentation rounds, and
    the scratch slots the network's flow state is leased from; each
    part's wall time goes to its {!Pacor_route.Workspace.escape_parts}.

    The flow is cost-optimal and routes exactly the max-flow bound of
    the network; qcheck properties assert both against the oracles in
    the tests.

    - [occupied] is a map of [grid]'s size that blocks the grid's static
      obstacles and every cell of {e all} routed cluster channels (for
      the engine, {!Pacor_route.Workspace.occupied}); escape paths may
      start on their own cluster's cells but never traverse an occupied
      cell (constraint 11);
    - [pins] are candidate control-pin cells, each usable by at most one
      cluster; they must be free boundary cells of the grid, and are
      overlaid whether or not [occupied] blocks them;
    - start cells may lie on occupied cells, never on a static obstacle.

    Errors on malformed inputs (pin off the boundary, blocked pin, start
    cell on an obstacle, duplicate [cluster_idx]). A feasible but
    congested instance returns [Ok] with the unroutable clusters listed
    in [failed]. *)

(** {2 Network internals}

    For the differential oracles in the tests, which rebuild the escape
    network as an explicit arc list and check the implicit rows and the
    seed against it; {!route} is the entry point. *)

(** Cell roles: excluded (obstacle, non-pin boundary, occupied cell),
    ordinary (free interior transit), pin (sink only) and start (some
    request's start cell, out-arcs only). *)

val role_excluded : int
val role_ordinary : int
val role_pin : int
val role_start : int

val compute_roles :
  ?workspace:Pacor_route.Workspace.t ->
  grid:Routing_grid.t ->
  occupied:Obstacle_map.t ->
  pins:Point.t list ->
  request list ->
  Packed_roles.t
(** Cell roles, highest precedence first: blocked in the grid (excluded),
    pin, start, then ordinary iff the cell is interior and free in
    [occupied], else excluded: the free cells are read off [occupied]'s
    bitmap eight at a time, then the ring is cleared and the pins and
    starts overlaid. Every packed byte the layer owns is written.
    [Invalid_argument] when [occupied] is not the grid's size. With a
    workspace the layer aliases byte slot 0. *)

val grid_network :
  ?workspace:Pacor_route.Workspace.t ->
  grid:Routing_grid.t ->
  roles:Packed_roles.t ->
  request list ->
  Mcmf_grid.t
(** The {!Mcmf_grid} network of these requests over [roles] (which must
    be {!compute_roles} of them). *)

val seed_heights :
  Pacor_route.Workspace.t ->
  grid:Routing_grid.t ->
  roles:Packed_roles.t ->
  pins:Point.t list ->
  request list ->
  int ->
  int
(** Runs the seed's BFS over cells, from the pins through ordinary cells
    (one search on the workspace, on its int slots 2 and 3), and returns
    each node's exact distance to the sink, negative when it cannot reach
    it: the [h] for {!Mcmf_grid.seed}. [h] reads slot 2, so it stays
    valid across the solve's rounds, until int slots 2–3 are next leased
    (the next seed on the workspace). *)
