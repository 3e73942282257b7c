(** The PACOR flow of Fig. 2, end to end, as a sequence of stages:

    valve clustering -> length-matching cluster routing ({!Cluster_route}:
    DME candidates, MWCP selection, negotiated routing) -> MST routing of
    ordinary clusters ({!Plain_route}) -> min-cost-flow escape routing on
    the rip-up ladder ({!Escape_stage.ripup}) -> final path detouring
    ({!Detour_stage.around}) -> rematch ({!Rematch_stage}).

    Stages 2-5 are one function, {!route_clusters}, which
    {!Pacor_fault.Repair} runs too, on its dirty clusters. On the ladder, a
    pinless length-matched tree first retries its remaining DME candidates
    before it is demoted, and when only walled-in ordinary clusters are
    left, the neighbouring clusters that jail them are demoted to compact
    ordinary routes around a reserved lane.

    The [Detour_first] variant runs the detour stage between negotiation and
    escape instead, and skips rematch; [Without_selection] skips the MWCP
    selection. *)

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
    ([Solution.runtime_s], which includes growing [workspace] to the
    instance, and [stage_seconds]) is the monotonic wall clock
    ({!Pacor_route.Clock.now_mono}), not process CPU time and not the
    NTP-adjustable system clock, so per-run figures stay truthful when
    other domains are busy or the system clock steps mid-run. The result is a deterministic
    function of [(config, problem)] — independent of [workspace] warmth
    and of which domain runs it — except under a wall-clock deadline,
    which by nature trips at a load-dependent point; expansion and
    iteration caps remain deterministic. *)

val route_clusters :
  config:Config.t ->
  workspace:Pacor_route.Workspace.t ->
  grid:Pacor_grid.Routing_grid.t ->
  delta:int ->
  pins:Pacor_geom.Point.t list ->
  fresh_id:(unit -> int) ->
  Pacor_valve.Cluster.t list ->
  (Escape_stage.assignment list * (string * Solution.measured) list, error) result
(** Stages 2-5 on [clusters], every rung and rematch partner drawn from
    them, against an owner layer loaded with the valve and pin cells and
    the clusters the caller holds, which stay untouched. [pins] are the
    pins on offer; [fresh_id] mints ids for declustered singletons.
    Returns the assignments, pinless ones included, and the labelled
    stages; on return the layer holds the assignments too. {!run} calls
    it with every cluster and nothing held, {!Pacor_fault.Repair} with
    its dirty clusters. *)

(** {2 The rungs on the rip-up ladder}

    {!route_clusters} passes both to {!Escape_stage.ripup}: [alternative_candidate
    ~config ~workspace ~grid tried] as [retry] (a pinless tree's next
    untried DME candidate; [tried] counts them per cluster id), and
    [unjail ~config ~workspace ~grid ~fresh_id ~pins] (a lane from each
    walled-in ordinary cluster to a pin, and its jailers demoted around
    it). *)

val alternative_candidate :
  config:Config.t -> workspace:Pacor_route.Workspace.t -> grid:Pacor_grid.Routing_grid.t ->
  (int, int) Hashtbl.t -> Routed.t -> Routed.t option

val unjail :
  config:Config.t -> workspace:Pacor_route.Workspace.t -> grid:Pacor_grid.Routing_grid.t ->
  fresh_id:(unit -> int) -> pins:Pacor_geom.Point.t list -> keep:Routed.t list ->
  failed:Routed.t list -> Routed.t list option

val scoped :
  ?workspace:Pacor_route.Workspace.t ->
  Pacor_route.Budget.limits ->
  (Pacor_route.Workspace.t -> 'a) ->
  ('a, string) result
(** [scoped ?workspace limits f] runs [f] on [workspace] (a fresh one by
    default) under a newly armed budget for [limits], so every search [f]
    performs, and nothing outside it, is charged. The previous budget is
    restored on every exit path, and an exception escaping [f] becomes
    [Error] with its message. {!run} and {!Pacor_fault.Repair} run in
    it. *)

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
