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
    than any possible augmenting-path length). *)

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

type solver =
  | Dijkstra  (** {!Mcmf}: Dijkstra with potentials *)
  | Spfa      (** {!Mcmf_spfa}: Bellman–Ford queue augmentation *)
  | Grid      (** {!Mcmf_grid}: CSR + persistent potentials + 0-1-BFS *)

val route :
  ?alive:(unit -> bool) ->
  ?sched:Pacor_sched.Sched.t ->
  ?workspace:Pacor_route.Workspace.t ->
  ?solver:solver ->
  grid:Routing_grid.t ->
  claimed:Point.Set.t ->
  pins:Point.t list ->
  request list ->
  (outcome, string) result
(** [route ~grid ~claimed ~pins requests]:

    [sched] shards each solve over the independent components of the
    role graph — requests whose reachable regions share no cell route on
    separate subnetworks, in parallel on leased scratch workspaces.
    Results are byte-identical with and without [sched] and for any
    worker count: the decomposition itself also runs without a scheduler
    (sequentially, same leases, same group order), the single-component
    case is the historical joint solve verbatim, and decomposition
    self-disables when the workspace carries real budget limits.

    [alive] (default always true) is a cooperative cancellation hook
    polled between flow augmentations; when it turns false the solve
    stops with the clusters escaped so far and lists the rest in
    [failed] — the same shape as a congested instance.

    [workspace] supplies the reusable search state (and attached
    {!Pacor_route.Budget}) for the [Grid] solver's augmentation rounds;
    the other solvers keep private state and ignore it.

    [solver] picks the min-cost-flow engine; the default is [Grid], the
    escape-specialised CSR solver, which [bench --escape-bench] measures
    as the fastest by a wide margin at Chip1 scale (see EXPERIMENTS.md).
    All three produce cost-optimal flows with identical
    (routed count, total length) outcomes — the benchmark and a qcheck
    property assert the agreement — and [Spfa]/[Dijkstra] are retained as
    independent cross-checks.

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

val feasibility_bound :
  ?workspace:Pacor_route.Workspace.t ->
  grid:Routing_grid.t ->
  claimed:Point.Set.t ->
  pins:Point.t list ->
  request list ->
  int
(** Maximum number of clusters {e any} escape assignment could route: the
    max flow of the escape network with costs ignored (BFS augmentation on
    the same CSR network {!route} solves over; the tests cross-check it
    against the independent {!Maxflow} Dinic solver). [route] always
    routes exactly this many, which the tests assert. Returns 0 on
    malformed inputs. *)
