(** Candidate Steiner tree selection (Sec. 4.2).

    One candidate tree must be chosen per length-matched cluster,
    maximising the MWCP objective: node weights are the length-mismatch
    costs [Cm] (Eq. 2) and edge weights between candidates of different
    clusters are the overlap costs [Co] (Eqs. 3–4); both are non-positive,
    so the optimum is the selection with the least mismatch and the fewest
    expected routing conflicts.

    Because every pair of candidates from different clusters is connected,
    a clique that covers all clusters is exactly a one-candidate-per-cluster
    selection; we solve that selection problem directly. Three solvers
    mirror the paper's three implementations:

    - [Exact]: branch and bound with an admissible remaining-cost bound —
      the stand-in for the paper's Gurobi ILP (optimal; the instance sizes
      of the flow are tiny);
    - [Greedy]: clusters in input order, each picking the candidate with
      the best marginal cost against choices already made (the "graph-based
      algorithm");
    - [Local_search]: greedy start, then single-cluster exchange moves to a
      local optimum (the unconstrained-quadratic-programming analogue);
    - [Mwcp_clique]: the paper's literal formulation — one graph node per
      candidate, edges between different clusters' candidates, maximum
      weight clique via {!Pacor_graphs.Clique} (a large uniform node bonus
      forces full cluster coverage). Optimal, like [Exact]; used to
      cross-check it. *)

open Pacor_dme

type solver = Exact | Greedy | Local_search | Mwcp_clique

type config = {
  lambda : float;    (** weight of mismatch vs overlap, paper default 0.1 *)
  solver : solver;
}

val default_config : config
(** lambda = 0.1, Exact. *)

val overlap_cost : Candidate.t -> Candidate.t -> float
(** Eq. (3)–(4) without the [-(1-lambda)] factor: summed bounding-box
    overlap ratio over all edge pairs of the two trees. Symmetric, >= 0. *)

val mismatch_cost : Candidate.t list list -> Candidate.t -> float
(** Eq. (2) without the [-lambda] factor: this candidate's mismatch
    normalised by the largest mismatch over {e all} clusters' candidates
    (0 when every candidate matches perfectly). *)

type selection = {
  chosen : Candidate.t list;   (** one per cluster, input order *)
  objective : float;           (** MWCP weight of the selection (<= 0) *)
}

val select :
  ?sched:Pacor_sched.Sched.t ->
  ?alive:(unit -> bool) ->
  ?config:config ->
  Candidate.t list list ->
  (selection, string) result
(** [select per_cluster_candidates] picks one candidate per inner list.
    Errors when some cluster has no candidates. Deterministic: with
    [sched], the [Exact] solver explores its top-level branch-and-bound
    branches speculatively in parallel and merges them in branch order
    (adopt / provably-no-better skip / sequential re-run), which
    reproduces the sequential incumbent bit-for-bit. Other solvers
    ignore [sched].

    [alive] is a cancellation hook for [Exact], whose branch and bound is
    exponential in the cluster count: it is polled every 256 search
    nodes, and once it returns false the search stops and returns its
    incumbent — greedy-seeded, so always a full selection, though no
    longer proven optimal. Without [alive] the search runs to completion.
    With [alive], [sched] is ignored: a cut search is not reproducible
    across worker counts. Other solvers ignore [alive]. *)

val selection_weight : lambda:float -> Candidate.t list list -> Candidate.t list -> float
(** Objective value of an arbitrary full selection (used by tests to verify
    optimality of [Exact] against brute force). *)
