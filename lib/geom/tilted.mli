(** Tilted (45°-rotated) coordinates and tilted rectangular regions (TRRs).

    The DME algorithm manipulates loci of points equidistant (in Manhattan
    metric) from two sub-trees. In the rotated frame [u = X + Y],
    [v = X - Y], Manhattan balls become axis-aligned squares, so every such
    locus is an axis-aligned rectangle — a {e tilted rectangular region}.
    Merging two TRRs only needs rectangle intersection and Chebyshev
    distances.

    {b Doubled coordinates.} Lemma 1 of the paper notes that the merging
    segment of two nodes at odd Manhattan distance is off-grid (it lives at
    half-integer positions). To keep all arithmetic exact we embed grid point
    [(x, y)] at [X = 2x, Y = 2y]; every merging computation then stays
    integral, and one unit of real channel length equals {b 2 units} in this
    module. Rounding back to the routing grid happens once, in
    {!nearest_grid_point}, and the resulting error is absorbed by the
    obstacle-avoiding embedding search and the final detour stage (exactly as
    Sec. 4.1 of the paper prescribes). *)

type coord = { u : int; v : int }
(** A point of the (doubled) tilted plane. *)

type t = private { ulo : int; uhi : int; vlo : int; vhi : int }
(** A non-empty TRR, inclusive bounds in tilted coordinates. *)

val coord_of_point : Point.t -> coord
(** Embed a grid point (doubling included). *)

val of_point : Point.t -> t
(** Degenerate TRR holding exactly one grid point. *)

val make : ulo:int -> uhi:int -> vlo:int -> vhi:int -> t
(** Raises [Invalid_argument] if the rectangle is empty. *)

val dist : t -> t -> int
(** Chebyshev gap between two TRRs = Manhattan distance between the regions
    in {b doubled} units (twice the real channel length). 0 if they touch. *)

val dist_coord : coord -> t -> int
(** Distance from a tilted point to a TRR, doubled units. *)

val coord_dist : coord -> coord -> int
(** Chebyshev distance between tilted points, doubled units. *)

val inflate : t -> int -> t
(** Grow by a (doubled) radius [r >= 0]: all points within distance [r]. *)

val inter : t -> t -> t option

val nearest_in : t -> coord -> coord
(** Closest point of the region to the given tilted point (coordinate-wise
    clamp, which is exact for Chebyshev distance). *)

val sample : t -> int -> coord list
(** [sample t n] returns up to [n] distinct points of the region spread over
    it (always includes the center; then corners and edge midpoints). Used to
    enumerate candidate merging-node placements. *)

val nearest_grid_point : coord -> Point.t
(** Round a tilted point back to the routing grid, minimising the (doubled)
    Manhattan distance between the tilted point and the chosen grid point. *)

val grid_round_error : coord -> int
(** Doubled Manhattan distance between the tilted point and
    [nearest_grid_point] — 0 when the point is exactly on-grid. *)

val pp : Format.formatter -> t -> unit
