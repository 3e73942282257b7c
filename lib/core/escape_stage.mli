(** Stage "Escape routing for control pins" (Sec. 5): one global min-cost
    flow connecting every routed cluster to a distinct control pin. *)

open Pacor_geom
open Pacor_grid

type assignment = {
  routed : Routed.t;
  escape : Pacor_flow.Escape.routed option;  (** [None] = escape failed *)
}

type outcome = {
  assignments : assignment list;   (** input order *)
  failed_clusters : int list;      (** cluster ids without a pin *)
  escape_length : int;
}

val occupy : Pacor_route.Workspace.t -> assignment -> unit
val vacate : Pacor_route.Workspace.t -> assignment -> unit
(** Hold or free the assignment's channels and escape path in the
    workspace's owner layer, under its cluster's id. *)

val run :
  ?alive:(unit -> bool) ->
  workspace:Pacor_route.Workspace.t ->
  grid:Routing_grid.t ->
  pins:Point.t list ->
  Routed.t list ->
  (outcome, string) result
(** The solver reads {!Pacor_route.Workspace.occupied} as its
    non-transit cells: the static obstacles, the valve and pin cells and
    every cell the owner layer holds (these clusters' channels and
    whatever other clusters hold). The layer must hold each valve under
    its cluster, as every stage leaves it; each cluster's start cells
    follow Sec. 5's three cases (see {!Routed.start_cells}).
    An empty cluster list is answered without a solve.
    [alive] is polled between flow augmentations (see
    {!Pacor_flow.Escape.route}); a cancelled solve reports the clusters
    escaped so far and lists the rest in [failed_clusters]. [workspace]
    backs the flow solver's augmentation searches (and charges its
    budget), like it backs the A* stages. *)

val single :
  workspace:Pacor_route.Workspace.t ->
  grid:Routing_grid.t ->
  pins:Point.t list ->
  start_cells:Point.t list ->
  unit ->
  Pacor_flow.Escape.routed option
(** One cluster's escape in isolation (the rematch pass): a multi-source A*
    from the cluster's start cells onto the free pins, avoiding every cell
    {!Pacor_route.Workspace.occupied} blocks (the cluster's own channels
    included) and all boundary transit. [idx] of the result is 0.

    The search is goal-directed by {!nearest_pin_steps} when every pin
    lies on the boundary ring, and falls back to {!Pacor_route.Astar}'s
    box heuristic otherwise. Either way the escape is a shortest one;
    the heuristic only picks among escapes of equal length. *)

val free_pins : grid:Routing_grid.t -> used:Point.t list -> Point.t list -> Point.t list
(** [free_pins ~grid ~used pins] is [pins], in order, less the ones in
    [used]: one membership bitmap over the grid, O(cells / 8 + pins +
    used). *)

val nearest_pin_steps : grid:Routing_grid.t -> Point.t list -> (int -> int) option
(** [nearest_pin_steps ~grid pins] is the Manhattan distance from a cell
    (dense row-major index) to the nearest of [pins], built from four 1-D
    distance transforms, one per boundary side, in O(width + height +
    pins). [None] when some pin is off the boundary ring. [pins] must be
    non-empty. *)

(** {2 The rip-up ladder}

    Sec. 3's loop, run by {!Engine.route_clusters} for the engine and for
    repair alike, on an owner layer that holds the ladder's clusters and
    any others. Each round solves the escapes against the layer and
    [pins], and stops on success, after [config.max_ripup_rounds] rounds
    or on a dead budget (a round entered on a dead budget skips its solve
    and reports every cluster pinless). Otherwise each pinless cluster is
    replaced, one at a time, against everything else the layer holds: a
    length-matched one is ripped at a higher cost ([retry], else
    {!Plain_route.route_all}), and an ordinary one stays as it is.
    Splitting a pinless ordinary cluster cannot help: its every cell is
    already an escape start, so its singletons reach no pin the whole
    cluster could not. When no cluster changed, [unjail] may return a new
    cluster list for another round. *)

val ripup :
  retry:(Routed.t -> Routed.t option) ->
  unjail:(keep:Routed.t list -> failed:Routed.t list -> Routed.t list option) ->
  config:Config.t ->
  workspace:Pacor_route.Workspace.t ->
  grid:Routing_grid.t ->
  fresh_id:(unit -> int) ->
  pins:Point.t list ->
  Routed.t list ->
  (outcome, string) result
(** [fresh_id] mints ids for {!Plain_route.route_all}'s singletons when it
    re-routes a length-matched cluster that [retry] left. [retry r] may
    re-route a pinless length-matched [r] (vacated); [unjail ~keep ~failed]
    sees the escaped and the (unchanged) pinless clusters, and leaves the
    layer holding the list it returns. The outcome's assignments carry
    the final clusters in order; on return the layer holds their escapes
    too. *)

val replace_each :
  workspace:Pacor_route.Workspace.t ->
  (Routed.t -> Routed.t list) ->
  Routed.t list ->
  Routed.t list
(** [replace_each ~workspace step pending] replaces the clusters of
    [pending] in order, concatenating what [step] returns. Each [step]
    runs with its cluster vacated from the owner layer, against the
    replacements so far and the clusters still pending (sequential, so
    two reroutes never overlap), and its result is held there. *)
