(** Stage "Path detouring for length-matching" (Algorithm 2).

    For every length-matched cluster routed as a Steiner tree, lengthen the
    short full paths until all of them land in the window
    [[maxL - delta, maxL]]. Legs are detoured in {e path sequence} order
    (Def. 6, nearest the sink first) because those legs affect the fewest
    other full paths; a leg is lengthened in place by U-bump insertion
    ({!Pacor_route.Detour}), with the paper's minimum-length bounded A*
    ({!Pacor_route.Bounded_astar}) as a rerouting fallback when the bumps
    run out of room. A cluster whose short paths cannot all be fixed within
    [theta] rounds keeps its original channels and is reported unmatched.

    Two-valve clusters are never detoured: their mismatch equals the parity
    of the channel length, which no detour can change (path lengths between
    fixed endpoints move in steps of 2), so they are already matched
    whenever [delta >= 1] or the distance is even. *)

open Pacor_grid

type outcome = {
  updated : Routed.t list;    (** input order; tree routes possibly lengthened *)
  matched_ids : int list;     (** cluster ids now within delta *)
  unmatched_ids : int list;   (** length-matched clusters left unmatched *)
}

val run :
  workspace:Pacor_route.Workspace.t ->
  grid:Routing_grid.t ->
  delta:int ->
  theta:int ->
  Routed.t list ->
  outcome
(** Every cell the workspace's owner layer occupies is off limits to the
    detours (other clusters' claims and escape channels, valve and pin
    cells), except each cluster's own internal cells. The clusters must
    be in the layer; on return it holds their updated routes. *)

val detour_one :
  workspace:Pacor_route.Workspace.t ->
  grid:Routing_grid.t ->
  delta:int ->
  theta:int ->
  Routed.t ->
  Routed.t * bool
(** Detour a single tree-routed cluster held in the owner layer, against
    everything else the layer holds, and move it to its updated route in
    the layer. Returns the updated route and whether the spread now fits
    [delta]; on failure the original route is returned unchanged
    (Algorithm 2's restore). Raises on non-tree routes. *)

val around :
  workspace:Pacor_route.Workspace.t ->
  grid:Routing_grid.t ->
  delta:int ->
  theta:int ->
  Escape_stage.assignment list ->
  Escape_stage.assignment list
(** The detour stage after escape: {!run} over the assignments' clusters,
    escapes unchanged; nothing is built when no tree needs a detour. *)
