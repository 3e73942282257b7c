(** Stage "MST-based cluster routing" (Sec. 3): route ordinary clusters —
    those without the length-matching constraint plus any demoted ones —
    and decluster into singletons whatever cannot be routed whole. *)

open Pacor_geom
open Pacor_grid
open Pacor_valve

type outcome = {
  routed : Routed.t list;       (** one entry per surviving cluster *)
  declustered : int;            (** clusters that had to be split *)
}

val route_all :
  ?workspace:Pacor_route.Workspace.t ->
  grid:Routing_grid.t ->
  valve_cells:Point.Set.t ->
  already_claimed:Point.Set.t ->
  fresh_id:(unit -> int) ->
  Cluster.t list ->
  outcome
(** Routes clusters largest-first. Obstacles for each cluster: static
    blockages, [already_claimed] cells (earlier clusters, length-matched
    trees), the claims of clusters routed before it, and the positions of
    all valves outside the cluster. A cluster whose MST cannot be routed is
    split into singletons (which claim just their valve cell and always
    succeed); [fresh_id] mints their cluster ids. *)

val route_one :
  ?workspace:Pacor_route.Workspace.t ->
  grid:Routing_grid.t ->
  valve_cells:Point.Set.t ->
  already_claimed:Point.Set.t ->
  fresh_id:(unit -> int) ->
  Cluster.t ->
  Routed.t list
(** [route_all] of one cluster: its MST, or its singletons when the MST
    fails. The rip-up ladder demotes a length-matched cluster with it, the
    engine's jailer rung its jailers, and repair re-routes a dirty cluster
    no candidate could route. *)
