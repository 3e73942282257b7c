(** Rectilinear routing paths on the grid.

    A path is a non-empty sequence of grid points where consecutive points
    are 4-neighbours. Its {e channel length} is its number of edges, the
    quantity the length-matching constraint speaks about. *)

open Pacor_geom

type t

val of_points : Point.t list -> t
(** Raises [Invalid_argument] on an empty list, non-adjacent consecutive
    points, or a repeated vertex (paths must be simple: a channel cannot
    cross itself on a single layer). *)

val points : t -> Point.t list
val source : t -> Point.t
val target : t -> Point.t

val length : t -> int
(** Number of edges ([List.length (points p) - 1]). *)

val is_trivial : t -> bool
(** A single-point path. *)

val mem : t -> Point.t -> bool

val iter : (Point.t -> unit) -> t -> unit
(** The path's points, source to target. *)

val replace_segment : t -> from_idx:int -> to_idx:int -> t -> t
(** [replace_segment p ~from_idx ~to_idx seg] substitutes the sub-path of
    [p] between vertex indices [from_idx] and [to_idx] (inclusive) with
    [seg], whose endpoints must equal the vertices at those indices. Used by
    the detour stage to lengthen one leg of a routed tree. *)

val nth : t -> int -> Point.t

val shares_vertex : t -> t -> bool
(** True when the two paths have any grid point in common. *)

val equal : t -> t -> bool
