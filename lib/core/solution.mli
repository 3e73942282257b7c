(** The final routing solution and its Table-2 statistics, plus an
    independent design-rule validator used by tests and the CLI. *)

open Pacor_valve

type routed_cluster = {
  routed : Routed.t;
  escape : Pacor_flow.Escape.routed option;
  lengths : (Valve.id * int) list;
      (** full channel length valve -> control pin (internal + escape);
          only populated for length-matched shapes *)
  matched : bool;   (** length-matched within delta (always false for
                        ordinary routes) *)
}

type stage_outcome =
  | Completed      (** the stage ran to its normal fixpoint *)
  | Degraded of string
      (** the stage fell back or stopped early; the string names the cause
          (e.g. ["expansions"], ["iterations"], ["skipped: deadline"]) *)
  | Timed_out      (** the wall-clock deadline expired during this stage *)

type t = {
  problem : Problem.t;
  config : Config.t;
  clusters : routed_cluster list;
  initial_multi_clusters : int;
      (** "#Clusters" of Table 2: clusters with >= 2 valves after the
          initial valve-clustering stage *)
  runtime_s : float;
  stage_seconds : (string * float) list;
      (** per-stage wall-clock time, in flow order (clustering, lm-routing,
          plain-routing, escape, detour, rematch) *)
  stage_search : (string * Pacor_route.Search_stats.snapshot) list;
      (** per-stage search-workspace counters, same order and labels as
          [stage_seconds]; zero snapshots for stages that run no grid
          search (e.g. clustering) *)
  stage_outcomes : (string * stage_outcome) list;
      (** same order and labels as [stage_seconds]; anything other than
          [Completed] means the configured {!Config.t.limits} tripped, so
          budget exhaustion stays distinguishable from both structural
          [Error]s and plain congestion *)
  budget_exhausted : Pacor_route.Budget.reason option;
      (** the first budget limit that tripped during the run, if any *)
}

type stats = {
  clusters : int;            (** initial multi-valve clusters *)
  matched_clusters : int;
  matched_length : int;      (** total channel length of matched clusters *)
  total_length : int;        (** all channels, internal + escape *)
  completion : float;        (** routed valves / valves *)
  runtime_s : float;
}

val assemble : delta:int -> Routed.t -> Pacor_flow.Escape.routed option -> routed_cluster
(** A routed cluster with its escape: [lengths] add the escape's length to
    each valve's anchor length, and [matched] holds for a length-matched
    shape with an escape and a spread within [delta]. *)

(** {2 Stage bookkeeping} *)

type measured = {
  seconds : float;  (** monotonic wall clock *)
  search : Pacor_route.Search_stats.snapshot;
  outcome : stage_outcome;
}

val measure : Pacor_route.Workspace.t -> (unit -> 'a) -> 'a * measured
(** Runs one stage: its wall time, the search counters it added to the
    workspace, and its outcome under the workspace's budget ([Completed]
    while no limit trips; a stage entered on an exhausted budget is
    [Degraded "skipped: …"]). *)

val add_stages : t -> (string * measured) list -> t
(** Appends labelled stages to [stage_seconds], [stage_search] and
    [stage_outcomes]. *)

val cluster_total_length : routed_cluster -> int
val stats : t -> stats

val occupies : routed_cluster -> Pacor_geom.Point.t -> bool
(** [occupies rc p] holds when [p] is one of the cluster's claimed cells
    or a cell of its escape path. *)

val validate : t -> (unit, string list) result
(** Re-checks the solution from scratch:
    - every path cell is in bounds and off static obstacles;
    - channels of different clusters are vertex-disjoint;
    - escape channels are vertex-disjoint from everything foreign;
    - every escape ends on a distinct problem pin;
    - every valve reaches a pin (100 % completion) — reported as an error
      string, not an exception, since congested instances may fail;
    - every cluster marked [matched] really has length spread <= delta;
    - valves sharing a pin are pairwise compatible.

    Messages come in that order. One walk over each cluster's cells
    checks the first three; its scratch is sized by the routed cells, not
    by the grid. It reads no router structure. *)

val degraded : t -> bool
(** True when any stage outcome is not [Completed]. *)

val pp_outcomes : Format.formatter -> t -> unit
(** One line: either "all stages completed" or the exhaustion reason plus
    the non-completed stages. *)

val pp_stats : Format.formatter -> stats -> unit
