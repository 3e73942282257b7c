(** Stage "Length-matching cluster routing" (Sec. 4): DME candidates,
    MWCP-based selection, negotiation-based routing — plus the fallback that
    demotes unroutable length-matched clusters to ordinary MST routing.

    Sink order invariant: candidates are always enumerated with sinks in the
    cluster's valve order (id-sorted), so sink index [i] of a candidate is
    valve [i] of the cluster — {!Routed.escape_anchor_lengths} relies on
    this. *)

open Pacor_geom
open Pacor_grid
open Pacor_valve

type outcome = {
  routed : Routed.t list;     (** successfully routed LM clusters *)
  demoted : Cluster.t list;   (** LM clusters that fell back to ordinary routing *)
  iterations : int;           (** negotiation rounds used in total *)
}

val route :
  ?workspace:Pacor_route.Workspace.t ->
  config:Config.t ->
  grid:Routing_grid.t ->
  obstacles:Obstacle_map.t ->
  Cluster.t list ->
  outcome
(** [route ~config ~grid ~obstacles clusters] routes every length-matched
    cluster of [clusters] (others are ignored) around [obstacles], which
    it only reads. [obstacles] must block the static blockages and the
    positions of {e all} valves of the chip, so no channel runs over a
    foreign valve (each edge's own endpoints are exempt inside the
    router): the engine passes its owner layer's
    {!Pacor_route.Workspace.occupied}. Raises [Invalid_argument] naming
    the id if negotiation returns a path for an edge id it was not
    given. *)

val candidates_for :
  config:Config.t ->
  grid:Routing_grid.t ->
  usable:(Point.t -> bool) ->
  Cluster.t ->
  Pacor_dme.Candidate.t list
(** Candidate trees for one cluster: DME enumeration for three or more
    valves, the single direct-edge candidate for a two-valve cluster
    (Sec. 4's special case; its mismatch is the pair's parity), a trivial
    candidate for singletons. Exposed for the Fig. 3 example and tests. *)

val route_single :
  ?workspace:Pacor_route.Workspace.t ->
  grid:Routing_grid.t ->
  obstacles:Obstacle_map.t ->
  Cluster.t ->
  Pacor_dme.Candidate.t ->
  Routed.t option
(** Route one cluster's chosen candidate in isolation (used by the
    rematch pass): negotiate its tree edges against the given static
    blockages and build the {!Routed.t}. [None] when some edge cannot be
    routed. *)
