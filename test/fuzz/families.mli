(** Generated problem families for the fuzz properties in
    [test/test_check.ml] and the fuzz runner [fuzz.exe]. *)

type gen = (Pacor.Problem.t, string) result QCheck.Gen.t

val synthetic : gen
(** [Synthetic.generate] on a 22x22 chip: 0-2 length-matched pairs, at
    most one triple, 1-3 singletons, 14 pins, delta 1. *)

val congested : gen
(** A 10x10 chip cut by walls, whose valves draw from a few mutually
    compatible activation sequences, so clustering forms ordinary
    multi-valve clusters, with about one boundary cell in four a pin:
    scarce pins make the ladder's rungs fire. *)

val trees : gen
(** [Synthetic.generate] with 2-4 length-matched triples on a 14-20 cell
    square chip, 0-30 obstacle cells, 0-2 singletons, 12 pins and delta
    0-2: trees enough to crowd the pins, so demotion, the rungs and
    rematch fire. *)

val all : (string * gen) list
(** The three families by name. *)

val instance : gen -> int -> (Pacor.Problem.t, string) result
(** [instance gen seed] is one draw of [gen] from
    [Random.State.make [| seed |]]. *)
