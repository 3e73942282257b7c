(** Valves: the control-layer terminals to be routed.

    A valve has an identifier, a position on the routing grid, and its
    activation sequence from the scheduled bioassay. *)

open Pacor_geom

type id = int

type t = {
  id : id;
  position : Point.t;
  sequence : Activation.sequence;
}

val make : id:id -> position:Point.t -> sequence:Activation.sequence -> t

val compatible : t -> t -> bool
(** Def. 4: valves are compatible iff their sequences are. *)

val pairwise_compatible : t list -> bool
(** True when every pair in the list is compatible — the requirement for
    valves sharing one control pin. *)

val equal : t -> t -> bool
val compare : t -> t -> int
