(** Axis-aligned integer rectangles, inclusive on all four sides.

    Used for routing blockages and for the bounding-box overlap cost of
    Eq. (4) in the paper. A rectangle with [x0 = x1] or [y0 = y1] is a
    degenerate (segment or point) rectangle and still has a positive cell
    count, which is what the overlap cost needs for grid-aligned edges. *)

type t = private { x0 : int; y0 : int; x1 : int; y1 : int }

(** [make ~x0 ~y0 ~x1 ~y1] normalises the corner order. *)
val make : x0:int -> y0:int -> x1:int -> y1:int -> t

(** Bounding box of two points. *)
val of_points : Point.t -> Point.t -> t

(** Smallest rectangle covering all points. Raises [Invalid_argument] on the
    empty list. *)
val of_point_list : Point.t list -> t

val width : t -> int
val height : t -> int

(** Number of grid cells covered (inclusive bounds), i.e.
    [(width+1) * (height+1)]. This is the "area" of Eq. (4). *)
val cells : t -> int

(** [inter a b] is [Some] of the overlap rectangle, or [None] if disjoint. *)
val inter : t -> t -> t option

(** Cells in the overlap of two rectangles, 0 when disjoint. *)
val overlap_cells : t -> t -> int

