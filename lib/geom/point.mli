(** Integer grid points in the chip plane.

    The routing grid uses integer coordinates; [x] grows rightward and [y]
    grows upward. All channel-length arithmetic in PACOR is Manhattan. *)

type t = { x : int; y : int }

val make : int -> int -> t


(** [manhattan a b] is the L1 distance between [a] and [b]. *)
val manhattan : t -> t -> int

(** [chebyshev a b] is the L-infinity distance between [a] and [b]. *)
val chebyshev : t -> t -> int

val add : t -> t -> t
val sub : t -> t -> t

(** [midpoint a b] rounds each coordinate toward [a]. *)
val midpoint : t -> t -> t

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit

(** 4-neighbourhood in fixed order: east, west, north, south. *)
val neighbours4 : t -> t list

(** [ring c r] lists the points at Chebyshev distance exactly [r] from [c]
    (the square "loop" used by the DME embedding search). [ring c 0] is
    [[c]]. *)
val ring : t -> int -> t list

module Set : Set.S with type elt = t
module Map : Map.S with type key = t
module Tbl : Hashtbl.S with type key = t
