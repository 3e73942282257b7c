(** PACOR flow configuration: the paper's tunables, plus the ablation
    switches used in its Table 2 self-comparison. Negotiation's [b_g],
    [alpha] and [gamma] are fixed at
    {!Pacor_route.Negotiation.default_config}. *)

type variant =
  | Full            (** the complete PACOR flow *)
  | Without_selection
      (** "w/o Sel": skip candidate-tree selection, take each cluster's
          first candidate *)
  | Detour_first
      (** "Detour First": detour for length matching right after the
          negotiation-based routing, skip the final detour stage *)

type t = {
  variant : variant;
  lambda : float;        (** mismatch-vs-overlap weight in selection, 0.1 *)
  max_candidates : int;  (** DME candidates per cluster, default 8 *)
  solver : Pacor_select.Tree_select.solver;  (** MWCP solver, always Exact *)
  theta : int;           (** detour-stage iteration bound, default 10 *)
  max_ripup_rounds : int;
      (** escape rip-up rounds, default 10 *)
  limits : Pacor_route.Budget.limits;
      (** search budget per engine run (deadline / expansion cap /
          negotiation-iteration cap); default {!Pacor_route.Budget.no_limits} *)
  verbose : bool;        (** log stage-by-stage progress *)
}

val default : t
val make : ?variant:variant -> unit -> t

val relax : t -> t
(** One retry step of the batch runner's relaxation policy: budget limits
    scaled by 2x ({!Pacor_route.Budget.relax}), detour bound [theta]
    doubled, rip-up rounds x1.5. The problem itself is untouched, so a
    relaxed retry still answers the same routing question. *)

val log : t -> ('a, Format.formatter, unit) format -> 'a
(** Prints a ["[pacor] "]-prefixed line on stderr when [verbose] is set. *)

val variant_name : variant -> string
