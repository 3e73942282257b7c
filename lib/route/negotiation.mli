(** Negotiation-based detailed routing (Algorithm 1 of the paper).

    Routes a batch of two-pin tree edges on a shared grid so that their
    paths are vertex-disjoint except where edges of the same tree meet at a
    common endpoint (Steiner branch points — an edge may always reach its
    own two endpoints, even when a sibling edge already claimed them).
    Edges are routed sequentially with A*; after a failed round the history
    cost of every contended cell rises — [Ch_{r+1}(g) = b_g + alpha * Ch_r(g)],
    Eq. (5) — conflicting paths are ripped up, and routing retries, at most
    [gamma] times.

    Two engines share the machinery, selected by {!config.mode}:

    {ul
    {- {!Full_reroute} is the paper's Algorithm 1: every round rips every
       path, bumps history along every routed path, and reroutes the whole
       batch (failed edges fronted — see below).}
    {- {!Incremental} (default) is conflict-driven: after a failed round,
       edges that neither failed nor had their path ripped keep their paths
       {e and} their cell claims; only dirty edges — this round's failures
       plus the owners of cells on those failures' claim-free "ideal" paths
       — re-enter the next round. History is bumped only on the conflict
       cells. Unless the result is provably unbeatable (round-1 success,
       which is byte-identical to the baseline; or every routed path
       already at its unconstrained-shortest length), it also runs the
       full-reroute baseline and returns the better of the two
       ((routed count, total length) lexicographic) — so it is never worse
       than the paper's loop.}}

    Routed paths occupy cells through refcounted claims kept in one packed
    int per cell (owner edge, claim count, bumps, bump round and the claim
    round, in a workspace scratch slot) rather than a per-round
    {!Obstacle_map.copy}: claiming/releasing a path is O(path length) and
    starting a fresh claim round is O(1) (O(cells this call claimed) once
    every 63 rounds, when the round number wraps).

    One deviation from the paper's pseudocode, noted here because it is
    load-bearing: on a retry, the previously failed edges are routed
    {e first}. The paper reroutes in fixed order and relies on history costs
    alone to break livelocks; fronting failed edges converges noticeably
    faster and never hurts. *)

open Pacor_geom
open Pacor_grid

type edge = {
  edge_id : int;             (** caller's identifier, echoed back *)
  ends : Point.t * Point.t;
}

type mode =
  | Incremental              (** conflict-driven rip-up, baseline fallback *)
  | Full_reroute             (** the paper's rip-everything loop *)

type config = {
  base_history : float;      (** [b_g], paper default 1.0 *)
  alpha : float;             (** history gain, paper default 0.1 *)
  gamma : int;               (** max iterations, paper default 10 *)
  mode : mode;               (** rerouting strategy, default {!Incremental} *)
}

val default_config : config

type outcome = {
  paths : (int * Path.t) list;  (** edge_id, routed path — all edges on success *)
  success : bool;               (** every edge routed vertex-disjointly *)
  iterations : int;             (** negotiation rounds used *)
}

val route :
  ?workspace:Workspace.t ->
  ?config:config ->
  grid:Routing_grid.t ->
  obstacles:Obstacle_map.t ->
  edge list ->
  outcome
(** [route ~grid ~obstacles edges] routes all edges. [obstacles] are static
    blockages (not mutated; include every cell the batch must avoid, e.g.
    other clusters' valves). On [success = false], [paths] holds the best
    subset found across rounds — most edges routed, total wirelength as the
    tie-break. Pass [workspace] to reuse one search state across the
    O(gamma x edges) inner A* calls. The per-cell claims and history live
    in the workspace's int scratch slots 0 and 1, which read zero between
    calls: a call costs what its searches touch, not a fill of the grid.
    Raises [Invalid_argument] for more than 2{^20} - 1 edges or [gamma]
    above 255, the ranges of the packed claim word.

    Each round charges one iteration against the workspace's
    {!Budget.t} ({!Budget.note_iteration}); an exhausted budget ends
    negotiation early with the best subset so far, exactly as if [gamma]
    had been reached, and the per-edge A* calls inside a round fail fast
    through the budget-checked {!Workspace.pop_cell}. *)

(**/**)

(** Entry points for tests only. *)
module Private : sig
  val route :
    round_limit:int ->
    ?workspace:Workspace.t ->
    ?config:config ->
    grid:Routing_grid.t ->
    obstacles:Obstacle_map.t ->
    edge list ->
    outcome
  (** {!route} with claim rounds wrapping after [round_limit] (in
      \[1, 63\], else [Invalid_argument]) instead of 63, so a test
      reaches the wrap. *)
end
