(** Cooperative search budgets: wall-clock deadline, node-expansion cap,
    and negotiation-iteration cap, checked inside the routers' existing
    inner loops.

    The negotiated-routing and rip-up loops have no a-priori bound, so a
    pathological instance can pin a worker indefinitely. A budget turns
    that into a bounded, diagnosable outcome: every queue pop in {!Astar}
    and {!Bounded_astar} calls {!tick} (via {!Workspace.pop_cell}), every
    negotiation round calls {!note_iteration}, and the engine's stage
    loops call {!alive} at their heads. When any limit trips, searches
    start failing fast and the engine's ordinary fallback chain (demotion,
    declustering, skipped refinement) degrades the solution instead of
    hanging.

    Cost model: {!tick} is an integer decrement; the wall clock is read
    once every ~512 ticks, so deadline overshoot is bounded by ~512 pops
    plus one escape-flow round. No allocation anywhere on the hot path.

    Determinism: expansion and iteration caps are deterministic functions
    of (config, problem) — two runs trip at the same pop. Wall-clock
    deadlines are not; use caps when byte-identical reproducibility
    matters. *)

type reason = Deadline | Expansions | Iterations

val reason_label : reason -> string
(** ["deadline"] / ["expansions"] / ["iterations"]. *)

val pp_reason : Format.formatter -> reason -> unit

type limits = {
  timeout_s : float option;       (** wall-clock seconds per engine run *)
  max_expansions : int option;    (** total queue pops per engine run *)
  max_iterations : int option;    (** total negotiation rounds per run *)
}

val no_limits : limits

val limits :
  ?timeout_s:float -> ?max_expansions:int -> ?max_iterations:int -> unit -> limits
(** Smart constructor; raises [Invalid_argument] on non-positive values. *)

val is_no_limits : limits -> bool

val relax : ?factor:float -> limits -> limits
(** Scales every present limit by [factor] (default 2.0) — the batch
    runner's retry policy. [no_limits] relaxes to itself. *)

val pp_limits : Format.formatter -> limits -> unit

type t
(** Mutable budget state. One per engine run; single-threaded, like the
    workspace that carries it. *)

val unlimited : unit -> t
(** A budget that never trips; all checks short-circuit to [true]. *)

val create : limits -> t
(** Unarmed budget: allowances are loaded but the deadline countdown only
    starts at {!arm}. *)

val limits_of : t -> limits

val arm : t -> unit
(** Starts (or restarts) the run: deadline := now + timeout, allowances
    and any previous exhaustion reset. No-op on an unlimited budget. *)

val tick : t -> bool
(** The per-expansion hot check. Charges one expansion, reads the clock
    every ~512 calls. [false] once any limit is exhausted — callers treat
    it as "queue empty". *)

val alive : t -> bool
(** Coarse loop-head check: reads the clock, charges nothing. *)

val note_iteration : t -> bool
(** Charges one negotiation round and reads the clock. [false] once
    exhausted. *)

val exhausted : t -> reason option
(** The first limit that tripped, if any, since the last {!arm}. *)
