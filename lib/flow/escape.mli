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
    and then the sink follow. {!Mcmf_grid} is the one solver: it reads
    each node's arcs off the cell-role layer ({!compute_roles}) instead of
    storing them. The tests keep general min-cost-flow and Dinic solvers
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
  claimed:Point.Set.t ->
  pins:Point.t list ->
  request list ->
  (outcome, string) result
(** [route ~grid ~claimed ~pins requests]:

    Requests whose reachable regions share no cell of the role graph
    route on separate subnetworks, one after another on [workspace], and
    merge in first-request order; the single-component case is the
    historical joint solve verbatim, and the split disables itself when
    the workspace carries real budget limits.

    [alive] (default always true) is a cooperative cancellation hook
    polled between flow augmentations; when it turns false the solve
    stops with the clusters escaped so far and lists the rest in
    [failed] — the same shape as a congested instance.

    [workspace] supplies the reusable search state (and attached
    {!Pacor_route.Budget}) for the seed BFS and augmentation rounds, and
    the scratch slots the network's flow state is leased from.

    The flow is cost-optimal and routes exactly the max-flow bound of
    the network; qcheck properties assert both against the oracles in
    the tests.

    - [claimed] are the cells of {e all} routed cluster channels; escape
      paths may start on their own cluster's cells but never traverse a
      claimed cell (constraint 11);
    - [pins] are candidate control-pin cells, each usable by at most one
      cluster; they must be free boundary cells;
    - every start cell must lie in [claimed] or be a free cell.

    Errors on malformed inputs (pin off the boundary, blocked pin, start
    cell on an obstacle, duplicate [cluster_idx]). A feasible but
    congested instance returns [Ok] with the unroutable clusters listed
    in [failed]. *)

(** {2 Network internals}

    For the differential oracles in the tests, which rebuild the escape
    network as an explicit arc list and check the implicit rows, the
    seed and the grouping against it, a split-graph search and a
    union-find; {!route} is the entry point. *)

(** Cell roles: excluded (obstacle, non-pin boundary, foreign claim),
    ordinary (free interior transit), pin (sink only) and start (some
    request's start cell, out-arcs only). *)

val role_excluded : int
val role_ordinary : int
val role_pin : int
val role_start : int

val compute_roles :
  ?workspace:Pacor_route.Workspace.t ->
  grid:Routing_grid.t ->
  claimed:Point.Set.t ->
  pins:Point.t list ->
  request list ->
  Packed_roles.t
(** Cell roles, highest precedence first: blocked, pin, start, claimed,
    boundary, ordinary. With a workspace the layer aliases byte slot 0. *)

val retarget_roles :
  grid:Routing_grid.t ->
  claimed:Point.Set.t ->
  Packed_roles.t ->
  from_pins:Point.t list ->
  from:request list ->
  pins:Point.t list ->
  request list ->
  unit
(** [retarget_roles ~grid ~claimed roles ~from_pins ~from ~pins requests]
    rewrites each cell of [from_pins] and of [from]'s start cells to its
    role in [compute_roles ~grid ~claimed ~pins requests] and leaves every
    other cell as it is, in O(pins + start cells). So when [roles] is
    [compute_roles ~grid ~claimed ~pins:from_pins from] (or a layer
    retargeted from it) and [pins] and [requests]' start cells are among
    [from_pins] and [from]'s, [roles] becomes exactly the
    [compute_roles] of [pins] and [requests]: how {!route} edits the
    joint layer for each group's subsolve and restores it afterwards. *)

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
    (one search on the workspace, on its int slots 4 and 5), and returns
    each node's exact distance to the sink, negative when it cannot reach
    it: the [h] for {!Mcmf_grid.seed}. Each reached cell's slot-4 word
    also carries the label of the pin whose front reached it, which
    {!group_requests} reads. [h] reads slot 4, so it stays valid across
    the solve's rounds, until int slots 4–5 are next leased (the next
    seed on the workspace). *)

val group_requests :
  Pacor_route.Workspace.t ->
  grid:Routing_grid.t ->
  roles:Packed_roles.t ->
  pins:Point.t list ->
  request list ->
  (int -> int) * (int array * Point.t list array) option
(** {!seed_heights} of all the requests, and the groups {!route} solves
    separately, read off the BFS's labels with O(start cells) more work
    (plus a flood of any pinless pocket beside a live start): [None] for
    at most one, else each request's group (first-request order; a
    request without a live start cell is in group 0) and each group's
    pins in input order. With groups the BFS's search work is not
    charged: the groups' own seeds charge theirs. Meant for a workspace
    without budget limits, where the BFS's ticks charge nothing. *)
