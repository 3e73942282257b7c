(** Dense per-cell role layer packed two bits per cell.

    The escape stage's flow-network builder classifies every grid cell into
    one of four roles (excluded / ordinary transit / pin / start). At
    1000x1000+ cells the one-byte-per-cell array it used to build is a
    megabyte touched twice per emitted arc; packing four cells per byte
    quarters the footprint, keeps the hot read a shift-and-mask, and lets
    the buffer come from a {!Pacor_route.Workspace} scratch lease instead
    of a per-call allocation.

    Roles are plain ints [0..3]; callers define the meaning. The unchecked
    {!get}/{!set} are the hot path (in-bounds indices only); the [checked_]
    variants are for cold call sites and tests. *)

type t

val create : int -> t
(** [create len] is a layer of [len] cells, all role [0]. *)

val bytes_needed : int -> int
(** Backing bytes required for [len] cells ([(len + 3) / 4]). *)

val wrap : len:int -> Bytes.t -> t
(** View an existing buffer (e.g. a workspace scratch lease) as a layer of
    [len] cells without copying. The buffer must be at least
    {!bytes_needed}[ len] long; existing contents are kept. *)

val length : t -> int

val get : t -> int -> int
(** Unchecked read (hot path). *)

val set : t -> int -> int -> unit
(** Unchecked write of a role in [0..3] (hot path; higher bits of the role
    are masked off). *)

val checked_get : t -> int -> int
val checked_set : t -> int -> int -> unit
