(** Clusters of valves sharing one control pin.

    A cluster is a set of pairwise-compatible valves that will be connected
    to a single pressure source. Clusters flagged [length_matched] carry the
    paper's length-matching constraint: all routed channel lengths from the
    shared pin to the member valves must agree within the chip's threshold
    [delta]. *)

type t = private {
  id : int;
  valves : Valve.t list;   (** non-empty, pairwise compatible, id-sorted *)
  length_matched : bool;
}

val make : id:int -> length_matched:bool -> Valve.t list -> (t, string) result
(** Validates non-emptiness, distinct valve ids, distinct valve positions and
    pairwise compatibility. *)

val make_exn : id:int -> length_matched:bool -> Valve.t list -> t

val size : t -> int
val valve_ids : t -> Valve.id list
val positions : t -> Pacor_geom.Point.t list

val needs_matching : t -> bool
(** Length matching only binds clusters with at least two valves. *)

val split : t -> fresh_id:(unit -> int) -> t list
(** Decluster into singleton clusters (used by rip-up when a cluster cannot
    be routed as a whole). Singletons drop the length-matching flag: a single
    valve is trivially matched. *)

val fresh_ids : t list -> unit -> int
(** [fresh_ids ts] mints ids above every id of [ts], counting up from the
    largest plus one (for {!split} and other rip-up replacements). *)

val pp : Format.formatter -> t -> unit
