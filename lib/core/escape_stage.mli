(** Stage "Escape routing for control pins" (Sec. 5): one global min-cost
    flow connecting every routed cluster to a distinct control pin. *)

open Pacor_geom
open Pacor_grid

type assignment = {
  routed : Routed.t;
  escape : Pacor_flow.Escape.routed option;  (** [None] = escape failed *)
}

type outcome = {
  assignments : assignment list;   (** input order *)
  failed_clusters : int list;      (** cluster ids without a pin *)
  escape_length : int;
}

val run :
  ?alive:(unit -> bool) ->
  ?workspace:Pacor_route.Workspace.t ->
  ?base:Point.Set.t ->
  grid:Routing_grid.t ->
  pins:Point.t list ->
  Routed.t list ->
  (outcome, string) result
(** Claims of all routed clusters, plus the [base] cells (default none:
    what clusters outside this solve occupy), become non-transit cells;
    each cluster's start cells follow Sec. 5's three cases (see
    {!Routed.start_cells}). An empty cluster list is answered without a
    solve.
    [alive] is polled between flow augmentations (see
    {!Pacor_flow.Escape.route}); a cancelled solve reports the clusters
    escaped so far and lists the rest in [failed_clusters]. [workspace]
    backs the flow solver's augmentation searches (and charges its
    budget), like it backs the A* stages. *)

val single :
  ?workspace:Pacor_route.Workspace.t ->
  grid:Routing_grid.t ->
  claimed:Point.Set.t ->
  pins:Point.t list ->
  start_cells:Point.t list ->
  unit ->
  Pacor_flow.Escape.routed option
(** One cluster's escape in isolation (the rematch pass): a multi-source A*
    from the cluster's start cells onto the free pins, avoiding [claimed]
    and all boundary transit. [idx] of the result is 0 — the caller knows
    which cluster it asked for.

    The search is goal-directed by {!nearest_pin_steps} when every pin
    lies on the boundary ring, and falls back to {!Pacor_route.Astar}'s
    box heuristic otherwise. Either way the escape is a shortest one;
    the heuristic only picks among escapes of equal length. *)

val nearest_pin_steps : grid:Routing_grid.t -> Point.t list -> (int -> int) option
(** [nearest_pin_steps ~grid pins] is the Manhattan distance from a cell
    (dense row-major index) to the nearest of [pins], built from four 1-D
    distance transforms, one per boundary side, in O(width + height +
    pins). [None] when some pin is off the boundary ring. [pins] must be
    non-empty. *)

(** {2 The rip-up ladder}

    Sec. 3's loop, shared by the engine and by repair. Each round solves
    the escapes against [base] and [pins], and stops on success, after
    [config.max_ripup_rounds] rounds or on a dead budget (a round entered
    on a dead budget skips its solve and reports every cluster pinless).
    Otherwise each pinless cluster is replaced, one at a time, against
    [base] and the claims of every other cluster: a length-matched one is
    ripped at a higher cost (the caller's [retry], else
    {!Plain_route.route_one}), a multi-valve ordinary one is declustered
    into singletons, and a singleton stays. When no cluster changed, the
    caller's [unjail] may return a new cluster list for another round.

    The engine passes both rungs; repair passes neither. *)

val ripup :
  ?retry:(others:Point.Set.t -> Routed.t -> Routed.t option) ->
  ?unjail:(keep:Routed.t list -> failed:Routed.t list -> Routed.t list option) ->
  config:Config.t ->
  workspace:Pacor_route.Workspace.t ->
  grid:Routing_grid.t ->
  reserved:Point.Set.t ->
  fresh_id:(unit -> int) ->
  ?base:Point.Set.t ->
  pins:Point.t list ->
  Routed.t list ->
  (outcome, string) result
(** [reserved] are the valve and pin cells ({!Problem.reserved_cells}),
    [fresh_id] mints the ids of declustered singletons. [retry ~others r]
    may re-route a pinless length-matched [r] around [others]; [unjail
    ~keep ~failed] sees the escaped and the (unchanged) pinless clusters.
    The outcome's assignments carry the final cluster list in order. *)

val replace_each :
  base:Point.Set.t ->
  context:Routed.t list ->
  (others:Point.Set.t -> Routed.t -> Routed.t list) ->
  Routed.t list ->
  Routed.t list
(** [replace_each ~base ~context step pending] replaces the clusters of
    [pending] in order, concatenating what [step] returns. Each [step]
    sees [base] plus the claims of [context], of the replacements so far
    and of the clusters still pending: sequential, because two
    simultaneous reroutes against stale claims could overlap. *)
