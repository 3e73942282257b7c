(** A local upper bound on the length of every simple path between two
    cells, read off a block-cut decomposition of the source's
    neighbourhood. {!Bounded_astar} uses it to refuse a bounded-length
    search that provably cannot succeed, before it pops anything.

    The certificate:
    + Breadth-first search from the source over [enterable] cells, never
      expanding through the target, collects at most [cap] cells: the
      region [R].
    + Everything outside [R] collapses into one hub vertex, joined to each
      cell of [R] (target included) that has an enterable neighbour
      outside [R].
    + An iterative Tarjan pass over [R] plus the hub, rooted at the source,
      finds the blocks (biconnected components) along the source–target
      path of the block-cut tree.

    If the hub lies in none of those blocks, no simple source–target path
    can leave [R]: its first exit and last re-entry would join through
    the hub into a simple path of the collapsed graph that runs through
    the hub, and every vertex on such a path lies in a block of the
    block-cut path. So every simple path stays inside the union of those
    blocks, and has at most (cells in the union − 1) edges. The grid is
    bipartite, so the length also has the parity of the Manhattan
    distance. When the target is outside [R], or the hub is on the block
    path, the answer is "unknown".

    The state is [cap]-sized tables plus a small cell-to-vertex hash,
    allocated on first use and reused; no later call allocates. *)

open Pacor_grid

type t

val create : ?cap:int -> unit -> t
(** Tables for regions of at most [cap] cells (default 256, the size {!Workspace} uses,
    must be [>= 1]), allocated on the first {!max_length} call. A region
    smaller than the grid is what makes the hub matter, so tests on small
    grids shrink [cap]. *)

val max_length :
  t -> grid:Routing_grid.t -> enterable:(int -> bool) -> source:int -> target:int ->
  int option
(** [Some l] when every simple [source]–[target] path whose cells all
    satisfy [enterable] (dense row-major indices) has at most [l] edges;
    [None] when the certificate cannot tell. [l] already has the parity of
    the Manhattan distance between the endpoints. [enterable] must hold
    for both endpoints. Single-threaded, like the workspace that owns
    [t]. *)
