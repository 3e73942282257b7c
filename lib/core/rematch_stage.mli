(** Stage 5b, rematch: the "clusters with length-matching constraint can
    also be ripped up, at higher cost" arm of Sec. 3's rip-up loop.

    Each tree cluster still unmatched after the detour stage (and holding
    an escape) is ripped up entirely — channels and escape — and retried
    on its other DME candidates, each routed, escaped
    ({!Escape_stage.single}) and detoured against everything else. When
    none comes back matched, the cluster and its nearest tree neighbour
    are routed, escaped and detoured jointly; both must come back matched.
    A failed rescue leaves the cluster as it was. *)

open Pacor_geom
open Pacor_grid

val run :
  config:Config.t ->
  workspace:Pacor_route.Workspace.t ->
  grid:Routing_grid.t ->
  delta:int ->
  reserved:Point.Set.t ->
  pins:Point.t list ->
  Escape_stage.assignment list ->
  Escape_stage.assignment list
(** [reserved] are the valve and pin cells ({!Problem.reserved_cells}),
    [pins] every candidate pin. Clusters are visited in input order, each
    against the current state of the others; the result keeps that
    order. *)
