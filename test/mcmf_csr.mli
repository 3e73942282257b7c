(** The escape solver over an explicit CSR network: the differential
    oracle for {!Pacor_flow.Mcmf_grid}, which enumerates the same rows
    from the cell-role layer. Same rounds, seed, potentials, threshold
    and decomposition tie-break; any unit-capacity 0/1-cost arc list. *)

type t

type outcome = { flow : int; cost : int; rounds : int }

val build :
  n:int ->
  source:int ->
  sink:int ->
  emit_arcs:((src:int -> dst:int -> cost:int -> unit) -> unit) ->
  t
(** [build ~n ~source ~sink ~emit_arcs] constructs the CSR network.
    [emit_arcs emit] must call [emit ~src ~dst ~cost] once per forward arc
    (capacity 1, cost 0 or 1); it is invoked {e twice} — a counting pass
    and a fill pass — so it must emit the same arcs in the same order both
    times (a mismatch raises [Invalid_argument]). Each node's row lists
    its arcs in emission order, reverse arcs at their heads. *)

val node_count : t -> int

val arc_count : t -> int
(** Directed arcs including reverses: twice the emitted count. *)

val solve :
  ?alive:(unit -> bool) ->
  ?workspace:Pacor_route.Workspace.t ->
  ?stop_when_cost_reaches:int ->
  t ->
  outcome
(** {!Pacor_flow.Mcmf_grid.solve} over the CSR. A network solves once;
    {!reset} re-arms it. *)

val seed : t -> h:(int -> int) -> unit
(** {!Pacor_flow.Mcmf_grid.seed}. Raises [Invalid_argument] after a
    solve; {!reset} clears the seed. *)

val reset : t -> unit
(** Restore initial capacities, zero potentials and clear dead marks,
    keeping the CSR structure. *)

val decompose_paths : t -> int list list
(** Unit source->sink node paths, following the lowest-index forward arc
    still carrying flow at every node; consumes the flow. *)

val row : t -> int -> (int * int * int) list
(** Node [v]'s CSR row as [(head, cost, residual capacity)]. *)
