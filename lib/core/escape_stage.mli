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

val run :
  ?alive:(unit -> bool) ->
  ?workspace:Pacor_route.Workspace.t ->
  grid:Routing_grid.t ->
  pins:Point.t list ->
  Routed.t list ->
  (outcome, string) result
(** Claims of all routed clusters become non-transit cells; each cluster's
    start cells follow Sec. 5's three cases (see {!Routed.start_cells}).
    [alive] is polled between flow augmentations (see
    {!Pacor_flow.Escape.route}); a cancelled solve reports the clusters
    escaped so far and lists the rest in [failed_clusters]. [workspace]
    backs the flow solver's augmentation searches (and charges its
    budget), like it backs the A* stages. *)

val single :
  ?workspace:Pacor_route.Workspace.t ->
  grid:Routing_grid.t ->
  claimed:Point.Set.t ->
  pins:Point.t list ->
  start_cells:Point.t list ->
  unit ->
  Pacor_flow.Escape.routed option
(** One cluster's escape in isolation (the rematch pass): a multi-source A*
    from the cluster's start cells onto the free pins, avoiding [claimed]
    and all boundary transit. [idx] of the result is 0 — the caller knows
    which cluster it asked for.

    The search is goal-directed by {!nearest_pin_steps} when every pin
    lies on the boundary ring, and falls back to {!Pacor_route.Astar}'s
    box heuristic otherwise. Either way the escape is a shortest one;
    the heuristic only picks among escapes of equal length. *)

val nearest_pin_steps : grid:Routing_grid.t -> Point.t list -> (int -> int) option
(** [nearest_pin_steps ~grid pins] is the Manhattan distance from a cell
    (dense row-major index) to the nearest of [pins], built from four 1-D
    distance transforms, one per boundary side, in O(width + height +
    pins). [None] when some pin is off the boundary ring. [pins] must be
    non-empty. *)
