(** Candidate Steiner tree selection (Sec. 4.2).

    One candidate tree must be chosen per length-matched cluster,
    maximising the MWCP objective: node weights are the length-mismatch
    costs [Cm] (Eq. 2) and edge weights between candidates of different
    clusters are the overlap costs [Co] (Eqs. 3–4); both are non-positive,
    so the optimum is the selection with the least mismatch and the fewest
    expected routing conflicts.

    Because every pair of candidates from different clusters is connected,
    a clique that covers all clusters is exactly a one-candidate-per-cluster
    selection; we solve that selection problem directly, by branch and
    bound with admissible remaining-cost bounds (the open clusters' best
    node weights, and their best marginal weights against the choices so
    far), seeded with a greedy pass in cluster order. It stands in for the
    paper's Gurobi ILP: optimal, and under a millisecond at the flow's
    instance sizes. The tests cross-check it against the paper's literal
    formulation, a maximum weight clique over one graph node per
    candidate, and against brute force. *)

open Pacor_dme

(* One solver; the type stays because perfbench/bench.ml builds [{ lambda; solver }]. *)
type solver = Exact

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
  ?alive:(unit -> bool) ->
  ?config:config ->
  Candidate.t list list ->
  (selection, string) result
(** [select per_cluster_candidates] picks one candidate per inner list.
    Errors when some cluster has no candidates. Deterministic.

    [alive] is a cancellation hook for [Exact], whose branch and bound is
    exponential in the cluster count: it is polled every 256 search
    nodes, and once it returns false the search stops and returns its
    incumbent — greedy-seeded, so always a full selection, though no
    longer proven optimal. Without [alive] the search runs to completion. *)

val selection_weight : lambda:float -> Candidate.t list list -> Candidate.t list -> float
(** Objective value of an arbitrary full selection, by the naive fold over
    [overlap_cost]. [select]'s [objective] is bit-equal to it on the chosen
    list; tests use it as the reference for that and for brute force. *)
