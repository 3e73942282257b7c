(** Sharded batch routing: route a list of named problem instances across
    a {!Pool} of domains and report per-instance outcomes plus aggregate
    throughput figures.

    This is the batch shape of the paper's whole evaluation — Table 2 is
    seven designs under three flow variants, the delta sweep re-routes one
    instance per threshold, and a corpus directory is one job per file —
    so every job carries its own [config] and the runner is agnostic to
    where the problems came from.

    Fault isolation: jobs fail individually. A job whose engine run
    errors, whose solution fails validation, or whose worker task raises
    produces an [Error job_error] in its own slot; every other job still
    completes, and the pool survives. Failed jobs are retried up to
    [retries] times under a progressively relaxed config
    ({!Pacor.Config.relax}: doubled budget limits, roomier detour and
    rip-up bounds); jobs that fail every attempt are listed in the
    summary's quarantine.

    Determinism contract: {!run} returns items in input order, and each
    item's solution is byte-identical to what a sequential
    [Pacor.Engine.run] on the same [(config, problem)] produces (the
    engine is deterministic and re-entrant; workers never share mutable
    state). Only the timing fields ([elapsed_s], and the solutions' own
    [runtime_s]/[stage_seconds]) vary between runs — with the caveat that
    a wall-clock [timeout_s] budget limit makes the affected job's
    degradation point timing-dependent; expansion and iteration caps
    stay fully deterministic. *)

type job = {
  name : string;
  problem : Pacor.Problem.t;
  config : Pacor.Config.t;
}

val job : ?config:Pacor.Config.t -> name:string -> Pacor.Problem.t -> job
(** [config] defaults to {!Pacor.Config.default} (the full PACOR flow). *)

type job_error =
  | Engine_error of { stage : string; message : string }
      (** structural engine failure ([stage = "internal"] for a caught
          engine exception) *)
  | Budget_exhausted of { reason : string; violations : string list }
      (** the budget tripped ({!Pacor_route.Budget.reason_label}) and the
          degraded solution does not validate — more budget might route
          this instance, which is what a relaxed retry probes *)
  | Invalid of string list
      (** the solution fails {!Pacor.Solution.validate} with no budget
          pressure: infeasible or congested beyond the flow's fallbacks *)
  | Crashed of string
      (** an exception escaped the worker task — pathological, since the
          engine itself is total *)

val error_to_string : job_error -> string

type item = {
  name : string;
  solution : (Pacor.Solution.t, job_error) result;
  attempts : int;  (** 1 = succeeded (or permanently failed) first try *)
  degraded : bool;
      (** the winning solution validates but some stage outcome is not
          [Completed] (see {!Pacor.Solution.stage_outcomes}) *)
  elapsed_s : float;
      (** wall-clock time this instance took on its worker, all attempts
          included *)
}

type summary = {
  items : item list;        (** input order, whichever worker ran each job *)
  jobs : int;               (** worker domains used *)
  elapsed_s : float;        (** wall-clock time for the whole batch *)
  sequential_s : float;
      (** sum of per-item [elapsed_s]: the single-worker wall-clock
          estimate that the printed speedup compares against *)
  search : Pacor_route.Search_stats.snapshot;
      (** per-stage search counters summed over every successful solution
          in the batch — a deterministic measure of total routing work,
          except [grid_allocs], which counts workspace warm-up allocation
          events and so depends on how instances land on (warm or cold)
          workers *)
  degraded_jobs : int;      (** successful but budget-degraded jobs *)
  retried_jobs : int;       (** jobs that needed more than one attempt *)
  quarantined : item list;
      (** the permanently failed subset of [items], in input order *)
}

val run : ?jobs:int -> ?retries:int -> job list -> summary
(** Routes every job on a fresh pool of [jobs] domains (default 1) and
    tears the pool down. [retries] (default 0) bounds relaxed re-attempts
    per failing job.
    @raise Invalid_argument if [retries < 0]. *)

val run_on : ?retries:int -> Pool.t -> job list -> summary
(** Like {!run} on an existing pool (its workers keep their warm
    workspaces across calls). *)

val run_problems :
  ?jobs:int ->
  ?retries:int ->
  ?config:Pacor.Config.t ->
  (string * Pacor.Problem.t) list ->
  summary
(** Convenience: every instance under one shared config. *)

val load_dir : string -> ((string * Pacor.Problem.t) list, string) result
(** Loads every [*.chip] problem file in a directory, sorted by file name
    (instance name = base name without extension). Errors on an unreadable
    directory, an unparsable file, or a directory with no [*.chip] files. *)

val pp_summary : Format.formatter -> summary -> unit
(** Per-instance table (name, matched/clusters, total length, completion,
    time, degradation marker) followed by the aggregate line with elapsed,
    speedup and the summed search counters, the degradation/retry
    counters, and the quarantine report. *)
