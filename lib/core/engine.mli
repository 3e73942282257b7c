(** The PACOR flow of Fig. 2, end to end:

    valve clustering -> length-matching cluster routing (DME candidates,
    MWCP selection, negotiated routing) -> MST routing of ordinary clusters
    -> min-cost-flow escape routing with rip-up / declustering -> final path
    detouring for length matching.

    The [Detour_first] variant runs the detour stage between negotiation and
    escape instead; [Without_selection] skips the MWCP selection. *)

type error = {
  stage : string;
  message : string;
}

val run :
  ?config:Config.t ->
  ?workspace:Pacor_route.Workspace.t ->
  Problem.t ->
  (Solution.t, error) result
(** Routes the instance. Structural failures (malformed escape inputs)
    surface as [Error]; congestion never does — unrouted valves and
    unmatched clusters simply show up in the solution's statistics and in
    {!Solution.validate}.

    {b Totality:} [run] never raises. Any exception escaping the flow is
    caught and returned as [Error { stage = "internal"; _ }].

    {b Budgets and degradation:} [config.limits] installs a
    {!Pacor_route.Budget.t} on the workspace for the duration of the run
    (the previous budget is restored on every exit path). When a limit
    trips, the flow degrades instead of failing: in-flight searches fail
    fast (their callers demote length-matched clusters to ordinary routes
    and decluster ordinary ones to singletons), the escape rip-up loop
    stops at the current assignment — or, if the budget died before escape
    ran, every cluster is reported pinless — and the detour / rematch
    refinement stages are skipped. The chain is therefore: negotiated LM
    routing -> plain MST routing -> unrouted-with-diagnostics, with each
    stage's outcome recorded in [Solution.stage_outcomes] and the tripped
    limit in [Solution.budget_exhausted]; budget exhaustion never becomes
    an [Error].

    Pass [workspace] to reuse one search workspace (and its warm arrays)
    across many runs — the batch runner gives each worker domain its own.

    {b Re-entrancy:} [run] keeps all mutable state local — the search
    workspace, rip-up hashtables and work obstacle maps are created per
    call (or owned by the caller via [workspace]), and no module in the
    flow holds module-level mutable state. Concurrent [run] calls from
    several domains are therefore safe, and may even share the (immutable)
    [Problem.t], provided each call uses a distinct workspace. Timing
    ([Solution.runtime_s], [stage_seconds]) is the monotonic wall clock
    ({!Pacor_route.Clock.now_mono}), not process CPU time and not the
    NTP-adjustable system clock, so per-run figures stay truthful when
    other domains are busy or the system clock steps mid-run. The result is a deterministic
    function of [(config, problem)] — independent of [workspace] warmth
    and of how runs are scheduled across domains — except under a
    wall-clock deadline, which by nature trips at a scheduling-dependent
    point; expansion and iteration caps remain deterministic. *)

(** {2 Benchmark compatibility}

    A thin wrapper over {!run} kept only because the benchmark harness
    reads this record; it goes in the next change to the benchmark.
    Nothing else may call it. *)

type tier = Flat  (** the only routing mode; prints as ["flat"] *)

val tier_name : tier -> string

type report = {
  solution : Solution.t;
  tier : tier;     (** always [Flat] *)
  clips : int;     (** always 0 *)
  fallbacks : int; (** always 0 *)
  bidir : int;     (** always 0 *)
}

val run_report :
  ?config:Config.t ->
  ?workspace:Pacor_route.Workspace.t ->
  Problem.t ->
  (report, error) result
(** [run] with its solution wrapped in a {!report}. *)
