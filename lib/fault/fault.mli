(** Post-fabrication fault model for a routed chip.

    A fault hits a chip {e after} routing: a valve membrane sticks, a
    routing cell is fouled by debris, or a channel segment delaminates and
    leaks. Faults are defined against a concrete {!Pacor.Solution.t} — the
    injection sites are the solution's own valves, channel cells and
    channel segments — and the online-repair engine ({!Repair}) re-routes
    around them instead of re-running the whole flow. *)

open Pacor_geom
open Pacor_valve

type t =
  | Stuck_valve of { valve : Valve.id; stuck_open : bool }
      (** The valve membrane no longer actuates. Whether it froze open or
          closed matters to the assay, not to routing: either way the valve
          is dead weight and its cluster must be re-routed without it. *)
  | Blocked_cell of Point.t
      (** A routing cell became unusable (debris, collapsed channel roof).
          Every channel crossing it must move. *)
  | Leaky_segment of { a : Point.t; b : Point.t }
      (** The channel segment between two adjacent cells leaks. Repair
          conservatively retires {e both} endpoint cells — a leak at the
          wall contaminates whatever flows through either side. *)

val pp : Format.formatter -> t -> unit

(** {2 Derived fault footprint} *)

val blocked_cells : t list -> Point.t list
(** The cells the fault set removes from the routing grid, deduplicated:
    every [Blocked_cell] plus both endpoints of every [Leaky_segment].
    Stuck valves contribute nothing here — their cell stays routable, the
    valve itself is retired via {!stuck_valves}. *)

val stuck_valves : t list -> Valve.id list
(** Ids of all stuck valves, deduplicated, sorted. *)

val apply : Pacor.Problem.t -> t list -> (Pacor.Problem.t, string) result
(** The problem instance as the fault set leaves it:
    {!Pacor.Problem.with_faults} with this fault set's {!blocked_cells}
    and {!stuck_valves}. This is what a full re-route (the repair
    baseline) must solve. *)

(** {2 Seeded injection} *)

val inject : rng:Pacor_designs.Rng.t -> rate:float -> Pacor.Solution.t -> t list
(** [inject ~rng ~rate sol] draws a deterministic fault set from the
    solution's own structure. The fault count is [rate x valve-count],
    rounded, at least one for any positive rate; a non-positive rate
    yields no faults. Kinds are drawn roughly 1/2 stuck valve (open or
    closed by coin flip), 1/4 blocked cell, 1/4 leaky segment; cell and
    segment sites come from the routed channels (internal and escape),
    never from a valve cell or a candidate pin, so a fault is always
    distinct from a stuck valve and never makes the instance trivially
    invalid. Sites never repeat; when a pool is empty (e.g. a chip whose
    clusters are all singletons has no segments) the draw falls back to a
    stuck valve. Same rng state and solution => identical fault list. *)

(** {2 Fault specifications (CLI / bench)} *)

type spec = {
  rate : float;      (** random-fault rate for {!inject}; 0 = none *)
  seed : int64;      (** rng seed for the random component *)
  explicit : t list; (** hand-placed faults, applied before the random ones *)
}

val parse_spec : string -> (spec, string) result
(** Comma-separated directives, e.g.
    ["rate=0.05,seed=42,stuck=3,stuck-open=7,cell=10:4,leak=2:3-2:4"]:
    - [rate=F]        random fault rate (default 0);
    - [seed=N]        injection seed (default 1);
    - [stuck=ID]      valve [ID] stuck closed;
    - [stuck-open=ID] valve [ID] stuck open;
    - [cell=X:Y]      blocked cell;
    - [leak=X:Y-X:Y]  leaky segment between two adjacent cells. *)

val realise : spec -> Pacor.Solution.t -> t list
(** The concrete fault list: the explicit faults followed by the seeded
    random ones ([inject] with a fresh rng from [spec.seed]), explicit
    sites excluded from the random draw. *)
