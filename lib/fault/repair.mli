(** Online repair: rip up only what a fault set touches and re-route it.

    A full re-route of a faulted chip answers the right question at the
    wrong price — most channels are nowhere near the fault. [run] instead
    computes the {e dirty set} (clusters owning a stuck valve, clusters
    whose channels or escape cross a faulted cell), rips up exactly those,
    and re-routes them around the fault with the engine's own stages, run
    from a base made of the untouched clusters (their footprints as
    obstacles, their pins out of the offer): candidate routing for
    length-matched clusters with an MST / singleton fallback, escape on
    the engine's rip-up ladder ({!Pacor.Escape_stage.ripup}: demote a
    pinless length-matched cluster, decluster a pinless multi-valve
    ordinary one; without the engine's alternative-candidate and jailer
    rungs), and the detour stage ({!Pacor.Detour_stage.around}) to restore
    length matching. There is no rematch pass. Untouched clusters are
    reused as-is — their paths come out byte-identical.

    The whole repair runs under a {!Pacor_route.Budget} attached to the
    workspace ({!Pacor.Engine.scoped}), so a pathological fault set degrades (clusters fall back to
    singleton routing, refinement is skipped) instead of hanging. A
    replacement cluster that cannot reach any pin is {e quarantined}: its
    valves are retired from the instance — the same graceful-degradation
    contract as the batch runner — and the fault is reported
    [Unrepairable], never raised. *)

open Pacor_valve

type fault_outcome =
  | Repaired            (** every affected cluster re-routed, matching kept *)
  | Degraded of string
      (** re-routed, but something was given up (length matching lost,
          budget tripped); the string names what *)
  | Unrepairable of string
      (** some affected cluster could not reach a pin; its valves were
          quarantined out of the instance *)

type report = {
  fault : Fault.t;
  outcome : fault_outcome;
  clusters : int list;  (** ids of the clusters this fault dirtied *)
}

type t = {
  solution : Pacor.Solution.t;
      (** the repaired solution, over the faulted problem (dead and
          quarantined valves removed); passes {!Pacor.Solution.validate} *)
  reports : report list;        (** one per input fault, input order *)
  dirty : int list;             (** cluster ids ripped up, sorted *)
  untouched : int;              (** clusters reused without re-routing *)
  quarantined : Valve.id list;  (** valves retired because no repair exists *)
  ripped_length : int;          (** channel length removed (incl. escapes) *)
  repaired_length : int;        (** channel length of the replacements *)
  wall_s : float;
}

val run :
  ?workspace:Pacor_route.Workspace.t ->
  ?limits:Pacor_route.Budget.limits ->
  faults:Fault.t list ->
  Pacor.Solution.t ->
  (t, string) result
(** [run ~faults sol] repairs [sol] in place of a re-route. [limits]
    bounds the repair search (default: the limits [sol] itself was routed
    under); the previous budget of [workspace] is restored on exit.
    [Error] only for structural impossibilities — the fault set leaves no
    valid instance (no surviving valve, fewer pins than valves) — never
    for congestion, which quarantines instead. *)

(** {2 The re-route core, exposed}

    The serving layer's delta handlers ([move_valve], [add_obstacle], …)
    need exactly the machinery [run] is built on — dirty-set rip-up, escape
    re-solve, quarantine — but against an instance mutated by an {e edit}
    rather than a fault overlay. These entry points expose that core. *)

val footprint : Pacor.Solution.routed_cluster -> Pacor_geom.Point.Set.t
(** Every cell a routed cluster occupies: claimed channel cells (valve
    cells included) plus its escape path. The membership test behind every
    dirty-set predicate. *)


val dirty_set : faults:Fault.t list -> Pacor.Solution.t -> int list
(** Ids (sorted) of the clusters any fault in the list touches — what [run]
    would rip up, without ripping anything. The serving layer phrases
    non-fault deltas as pseudo-faults (an added obstacle is a
    [Blocked_cell], a moved valve a [Stuck_valve] plus a [Blocked_cell] at
    the destination) and reads the dirty set off this. *)

val reroute :
  ?workspace:Pacor_route.Workspace.t ->
  ?limits:Pacor_route.Budget.limits ->
  ?stage:string ->
  problem:Pacor.Problem.t ->
  is_dirty:(Pacor.Solution.routed_cluster -> bool) ->
  ?revise:(Cluster.t -> Cluster.t option) ->
  Pacor.Solution.t ->
  (t, string) result
(** [reroute ~problem ~is_dirty sol] rips up the clusters [is_dirty]
    selects and re-routes them against [problem] — an already-mutated
    variant of [sol.problem] (obstacle added or removed, valve moved…).
    [revise] maps each ripped cluster to the cluster to route in its place
    ([None] retires it; default: route it unchanged) — a moved valve's
    owner, for instance, needs its valve record updated to the new
    position. Untouched clusters are reused byte-identically, so the caller
    must ensure [is_dirty] covers every cluster [problem] invalidates
    (e.g. any cluster whose {!footprint} contains a newly blocked cell).
    [stage] names the appended stage in the solution's bookkeeping
    (default ["reroute"]). The result's [reports] list is empty — per-fault
    verdicts only make sense for [run]. *)

val pp_outcome : Format.formatter -> fault_outcome -> unit
val pp_report : Format.formatter -> report -> unit
val pp_summary : Format.formatter -> t -> unit
