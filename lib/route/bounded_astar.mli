(** Minimum-length {e bounded} routing (Sec. 6): the modified A* that
    computes a path whose length is {b at least} a target bound, and as
    short as possible beyond it.

    Differences from classic A*, following the paper: the G value of a cell
    records the path length from the source and a cell may hold several
    visits with different G values, and the F value adds a penalty whenever
    the estimated total length falls short of the bound, steering the
    search toward longer prefixes. (The paper only keeps {e increasing} G
    values per cell; that is incomplete — an early long visit can shadow
    the exact-length one — so we keep any distinct G, and check prefix
    simplicity at insertion so every returned path is simple.)

    This is a heuristic (exact minimum-length-bounded simple paths are
    NP-hard); {!Detour.lengthen} is the guaranteed-progress companion used
    by the production detour stage.

    The search cannot tell "no such path" from "not found yet", so a
    hopeless bound used to cost the whole pop budget. Before it pushes the
    source, a search whose bound exceeds the Manhattan distance asks
    {!Block_cut.max_length} for an upper bound on every simple
    source–target path: it breadth-first collects up to
    256 cells around the source (never through the
    target), collapses the rest of the grid into one hub vertex, and
    finds the blocks on the source–target path of the block-cut tree. If
    the hub is not in them, every simple path stays inside those blocks,
    so its length is at most their cell count minus one, lowered to the
    parity of the Manhattan distance. When that is below [min_length] no
    simple path meets the bound, and the search returns [None] with zero
    pops: the answer it would have reached anyway, so results are
    unchanged and only work is saved. The refusal is counted in
    {!Search_stats} ([refused]), and since nothing is popped, nothing is
    charged to the workspace's {!Budget}: under a binding
    [--max-expansions], later searches keep the budget a refused one
    would have spent. *)

open Pacor_geom
open Pacor_grid

val search :
  ?workspace:Workspace.t ->
  grid:Routing_grid.t ->
  usable:(int -> bool) ->
  ?max_visits_per_cell:int ->
  ?pop_budget:int ->
  source:Point.t ->
  target:Point.t ->
  min_length:int ->
  unit ->
  Path.t option
(** A simple path from [source] to [target] of length (edge count)
    [>= min_length], or [None]. [usable] is consulted for interior cells
    by dense row-major index, always in bounds (endpoints exempt) — wrap
    point predicates with {!Routing_grid.point_of_index} where needed.
    [max_visits_per_cell] (default 8, must be >= 1) bounds how many
    distinct G values a cell may hold; [pop_budget] (default [50 * cells])
    bounds total work. Deterministic. Pass [workspace] to reuse
    its visit-entry pool and node record across calls. *)
