(** The uniform routing grid of the control layer.

    Couples the grid dimensions with the static obstacle map (fabrication
    blockages) and identifies the boundary cells where control pins may sit.
    Dynamic blockages (already-routed channels) are layered on top by the
    routers, so the static map here never changes after construction. *)

open Pacor_geom

type t

val create : width:int -> height:int -> ?obstacles:Rect.t list -> unit -> t

val width : t -> int
val height : t -> int
val cells : t -> int
val obstacles : t -> Obstacle_map.t
(** The static map itself (shared, do not mutate; use {!fresh_work_map}). *)

val fresh_work_map : t -> Obstacle_map.t
(** A private copy of the static obstacle map for a router to scribble on. *)

val blocked_work_map : t -> Point.Set.t list -> Obstacle_map.t
(** [fresh_work_map] with every cell of the given sets blocked. *)

val with_extra_obstacles : t -> Pacor_geom.Point.t list -> t
(** A new grid whose static map additionally blocks the given cells (the
    fault overlay of the online-repair flow). The original grid is
    untouched; out-of-bounds points are ignored like {!Obstacle_map.block}. *)

val without_obstacles : t -> Pacor_geom.Point.t list -> t
(** The inverse overlay: a new grid whose static map frees the given cells
    (the serving layer's [remove_obstacle] delta). The original grid is
    untouched; out-of-bounds points are ignored. *)

val in_bounds : t -> Point.t -> bool
val blocked : t -> Point.t -> bool
val free : t -> Point.t -> bool

val on_boundary : t -> Point.t -> bool
(** True for in-bounds cells on the outermost ring of the grid. *)

val boundary_points : t -> Point.t list
(** All boundary cells, blocked or not, in deterministic order. *)

val nearest_free : t -> Point.t -> Point.t option
(** Closest statically free cell to the given point, searching outward ring
    by ring (the embedding search of Sec. 4.1); [None] if the whole grid is
    blocked. *)

val index : t -> Point.t -> int
(** Dense index in [0, cells)] for array-backed router state. *)

val point_of_index : t -> int -> Point.t

val free_i : t -> int -> bool
(** {!free} by dense index; the index must be valid. *)

val on_boundary_i : t -> int -> bool
(** {!on_boundary} by dense index; the index must be valid. *)

val fill_interior_free : t -> Bytes.t -> unit
(** [fill_interior_free t b] writes a dense transit mask into [b] (which
    must hold at least {!cells} bytes): byte [i] is ['\001'] iff cell [i]
    is statically free {e and} off the boundary ring, ['\000'] otherwise.
    The baseline for role arrays layered by the flow network builder. *)

val fill_interior_free_packed : t -> Packed_roles.t -> unit
(** {!fill_interior_free} into a two-bit {!Packed_roles} layer (role [1]
    for free interior cells, [0] otherwise) — the allocation-light baseline
    the escape network builder layers pins and starts onto. The layer must
    hold at least {!cells} cells. *)

val iter_neighbours4 : t -> int -> (int -> unit) -> unit
(** [iter_neighbours4 t i f] applies [f] to the dense indices of the
    in-bounds 4-neighbours of cell [i], by row-stride arithmetic — no
    intermediate point list. Emission order matches {!Point.neighbours4}
    ([x+1], [x-1], [y+1], [y-1]) so search tie-breaking is identical to a
    point-based loop. *)
