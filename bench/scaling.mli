(** Scaling study (extension beyond the paper's evaluation): how do the
    flow's runtime and quality grow with chip size?

    Generates a family of geometrically growing synthetic designs with
    proportional valve/cluster/pin counts and measures the full PACOR flow
    on each — the data behind the runtime-vs-size series in EXPERIMENTS.md. *)

open Pacor_designs

type sample = {
  label : string;
  grid_cells : int;
  valves : int;
  clusters : int;
  matched : int;
  total_length : int;
  completion : float;
  runtime_s : float;
  stage_seconds : (string * float) list;
}

val family : ?steps:int -> unit -> Synthetic.spec list
(** Growing specs: 24x24 doubling in area per step (default 4 steps), with
    valve counts growing proportionally to the linear dimension. *)

val measure : Synthetic.spec list -> (sample list, string) result
(** Run PACOR on each spec and collect the series. *)

val pp_table : Format.formatter -> sample list -> unit
