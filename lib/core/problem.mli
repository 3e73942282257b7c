(** A control-layer routing problem instance (Sec. 2).

    Given: valves with coordinates and activation sequences, clusters with
    the length-matching constraint and threshold [delta], feasible control
    pin positions, and design rules (encoded as the routing grid pitch plus
    explicit blockages). *)

open Pacor_geom
open Pacor_grid
open Pacor_valve

type t = private {
  name : string;
  grid : Routing_grid.t;
  rules : Design_rules.t;
  valves : Valve.t list;
  lm_clusters : Cluster.t list;
      (** the length-matched seed clusters [M(V)]; always flagged *)
  pins : Point.t list;   (** candidate control pin cells, free, on boundary *)
  delta : int;           (** length-matching threshold, grid edges *)
}

val create :
  ?name:string ->
  ?rules:Design_rules.t ->
  grid:Routing_grid.t ->
  valves:Valve.t list ->
  ?lm_clusters:Cluster.t list ->
  pins:Point.t list ->
  ?delta:int ->
  unit ->
  (t, string) result
(** Validates:
    - at least one valve; distinct valve ids and positions;
    - every valve on a free in-bounds cell;
    - every pin a distinct free boundary cell not under a valve;
    - at least as many pins as valves (an upper bound on needed pins even
      after full declustering);
    - seed clusters pairwise compatible, flagged length-matched, and only
      referencing known valves;
    - [delta >= 0] (default 1, the paper's setting);
    - a [name] the instance text can carry unchanged: no newline or [#],
      no leading space, no trailing whitespace, no doubled space. *)

val create_exn :
  ?name:string ->
  ?rules:Design_rules.t ->
  grid:Routing_grid.t ->
  valves:Valve.t list ->
  ?lm_clusters:Cluster.t list ->
  pins:Point.t list ->
  ?delta:int ->
  unit ->
  t

val valve_count : t -> int
val pin_count : t -> int
val obstacle_count : t -> int
val find_valve : t -> Valve.id -> Valve.t option
val pp_summary : Format.formatter -> t -> unit

val reserved_cells : t -> Point.Set.t
(** Valve cells plus candidate pins: blockages for every internal-routing
    stage. A channel routed over a pin would collide with whichever escape
    later terminates there; A* exempts each search's own endpoints, and the
    escape router receives the pin list separately. *)

val with_delta : t -> int -> (t, string) result
(** Same instance under a different length-matching threshold (used by the
    delta-sweep experiment and the serving layer's [set_delta] request). *)

val move_valve : t -> Valve.id -> Point.t -> (t, string) result
(** The instance with one valve relocated (seed clusters updated in place).
    Pure: the input is untouched. Errors on an unknown id, a blocked or
    out-of-bounds target, a cell already holding a valve or a pin, or any
    other {!create} invariant the move would break. Moving a valve onto its
    own current cell is the identity. *)

val add_obstacle : t -> Point.t -> (t, string) result
(** The instance with one more statically blocked cell. A candidate pin on
    that cell disappears (like the fault overlay); a valve on it is an
    error — retiring valves is the fault path ({!with_faults}), not an
    edit. *)

val remove_obstacle : t -> Point.t -> (t, string) result
(** The instance with one statically blocked cell freed. Errors when the
    cell is not an obstacle. Note the freed cell does {e not} become a
    candidate pin, even on the boundary. *)

val with_faults :
  t -> blocked:Point.t list -> dead_valves:Valve.id list -> (t, string) result
(** The instance after a fault overlay: [blocked] cells join the static
    obstacle map, [dead_valves] (plus any valve standing on a blocked cell)
    are retired, pins on blocked cells disappear, and seed clusters shrink
    to their surviving members (empty clusters are dropped).  The result is
    re-validated by {!create}; an error means the faults left no routable
    instance (e.g. no valve survives, or more valves than pins). *)
