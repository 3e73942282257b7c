(** Mutable bit-packed obstacle map over a [width] x [height] routing grid.

    This is the [ObsMap] of Algorithm 1: the negotiation router marks routed
    paths as obstacles and clears them again on rip-up, so the map must be
    cheap to copy and to flip. Cells outside the grid count as blocked. *)

open Pacor_geom

type t

val create : width:int -> height:int -> t
(** All cells initially free. *)

val width : t -> int
val height : t -> int
val in_bounds : t -> Point.t -> bool

val blocked : t -> Point.t -> bool
(** [true] for obstructed cells and for any out-of-bounds point. *)

val free : t -> Point.t -> bool

val free_i : t -> int -> bool
(** [free_i t i] reads cell [i] of the dense row-major index space
    ([y * width + x], the same layout as {!Routing_grid.index}). Unlike
    {!free} the index must be valid — the routers' index-based
    neighbour iteration never produces an out-of-bounds cell. *)

val fill_free : t -> Bytes.t -> unit
(** [fill_free t b] writes one byte per cell of the dense index space into
    [b] (at least [width * height] bytes): ['\001'] where the cell is free,
    ['\000'] where it is blocked. Eight cells per step, for masks rebuilt
    per call on large grids. *)

val fill_free_packed : t -> Bytes.t -> int -> unit
(** [fill_free_packed t b v] writes {!Packed_roles}' two-bit layout into
    the first [(width * height + 3) / 4] bytes of [b]: [v] (0–3) where
    the cell is free, 0 where it is blocked or past the last cell. One
    table lookup per eight cells. *)

val block : t -> Point.t -> unit
(** No-op out of bounds. *)

val unblock : t -> Point.t -> unit

val block_rect : t -> Rect.t -> unit
(** Block every in-bounds cell of the rectangle. *)

val block_points : t -> Point.t list -> unit
val unblock_points : t -> Point.t list -> unit

val blocked_count : t -> int
(** Number of obstructed in-bounds cells. *)

val copy : t -> t

val iter_blocked : t -> (Point.t -> unit) -> unit

val iter_blocked_index : t -> (int -> unit) -> unit
(** [iter_blocked_index t f] calls [f i] for every blocked cell in
    ascending dense index ([y * width + x]), i.e. row-major like
    {!iter_blocked}, without allocating a point per cell. *)
