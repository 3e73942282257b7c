(** A* search on the routing grid (Sec. 3, "MST-based cluster routing").

    One engine covers the paper's point-to-point, point-to-path and
    path-to-path searches: sources and targets are both point {e sets}
    (multi-source search from a routed component, multi-target search onto
    a routed path). Costs are integers in {!cost_scale} units so that the
    negotiation router can add fractional history costs exactly.

    The inner loop is allocation-free: neighbours are generated by
    row-stride index arithmetic ({!Routing_grid.iter_neighbours4}), the
    queue pops without boxing, and the spec callbacks take dense cell
    indices so hot predicates are plain array/bit reads. *)

open Pacor_geom
open Pacor_grid

val cost_scale : int
(** One grid step costs [cost_scale] (= 1000); history costs are expressed
    in the same fixed-point unit. *)

type spec = {
  usable : int -> bool;
    (** May the search enter this cell (dense row-major index, always in
        bounds)? Must already combine static obstacles, routed channels and
        any per-call exceptions. Sources and targets are exempted
        automatically. *)
  extra_cost : int -> int;
    (** Additional non-negative cost (fixed-point, {!cost_scale} units) for
        entering a cell — the negotiation history cost; [Fun.const 0] for
        plain shortest paths. *)
}

val obstacle_spec : Obstacle_map.t -> spec
(** Enterable iff free in the map, no extra cost — the common case. *)

val point_spec :
  grid:Routing_grid.t -> usable:(Point.t -> bool) -> extra_cost:(Point.t -> int) -> spec
(** Adapt point-based predicates (each call converts the index back to a
    point, so this is for cold call sites — set-membership predicates, not
    the negotiation inner loop). *)

val search :
  ?workspace:Workspace.t ->
  grid:Routing_grid.t ->
  spec:spec ->
  sources:Point.t list ->
  targets:Point.t list ->
  unit ->
  Path.t option
(** Cheapest path from any source to any target ([None] when disconnected).
    The result starts at a source and ends at a target; a source that is
    itself a target yields a trivial path. Deterministic.

    Pass [workspace] to reuse preallocated search state across calls (the
    whole engine shares one workspace per routed problem); without it a
    private workspace is created, preserving the original
    allocate-per-call behaviour. *)

val shortest :
  ?workspace:Workspace.t ->
  grid:Routing_grid.t ->
  obstacles:Obstacle_map.t ->
  Point.t ->
  Point.t ->
  Path.t option
(** Convenience point-to-point shortest path treating [obstacles] as the
    only blockage (endpoints exempt). *)
