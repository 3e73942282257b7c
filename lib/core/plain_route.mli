(** Stage "MST-based cluster routing" (Sec. 3): route ordinary clusters —
    those without the length-matching constraint plus any demoted ones —
    and decluster into singletons whatever cannot be routed whole, against
    the workspace's owner layer ({!Pacor_route.Workspace.occupied}),
    which it leaves unedited. *)

open Pacor_geom
open Pacor_grid
open Pacor_valve

type outcome = {
  routed : Routed.t list;       (** one entry per surviving cluster *)
  declustered : int;            (** clusters that had to be split *)
}

val route_all :
  ?fence:Point.t list ->
  workspace:Pacor_route.Workspace.t ->
  grid:Routing_grid.t ->
  fresh_id:(unit -> int) ->
  Cluster.t list ->
  outcome
(** Routes clusters largest-first, each against the layer, the [fence]
    cells (default none) and the claims of the clusters routed before it;
    a cluster's own valves are open to its channels. A cluster whose MST
    cannot be routed is split into singletons (which claim just their
    valve cell and always succeed); [fresh_id] mints their cluster ids.
    Besides the plain-routing stage, the rip-up ladder demotes a
    length-matched cluster with it and the jailer rung its jailers (fenced
    off the jailed valves). *)
