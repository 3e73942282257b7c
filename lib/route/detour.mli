(** Guaranteed-progress path lengthening by U-bump insertion.

    The final PACOR stage must stretch the short full paths of a
    length-matched cluster into the window [maxL - delta, maxL]
    (Algorithm 2). Each U-bump replaces one path edge [p -> q] by
    [p -> p' -> q' -> q] using two free cells alongside the edge, adding
    exactly 2 to the length — matching the parity fact that the length of a
    path between fixed endpoints can only change in steps of 2. Repeated
    insertion therefore reaches any target of achievable parity, with
    overshoot at most 1 for any [delta >= 1] window.

    Compared with {!Bounded_astar}, this never reroutes the leg: it only
    widens it in place, so disjointness with everything outside [usable]
    is preserved by construction. *)

open Pacor_geom
open Pacor_grid

val lengthen : Path.t -> target:int -> usable:(Point.t -> bool) -> Path.t option
(** [lengthen path ~target ~usable] returns a path with the same endpoints
    and length [>= target] (overshoot at most 1), or [None] when not enough
    free space is adjacent to the path. [usable] must be true for cells the
    bumps may occupy — typically "free in the work map"; cells of [path]
    itself are handled internally. The input path is returned unchanged if
    already long enough. *)
