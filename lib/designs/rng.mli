(** Deterministic splitmix64 PRNG for benchmark generation.

    The published Chip1/Chip2 layouts are proprietary; our stand-ins must be
    reproducible bit for bit across runs and machines, so the generators use
    this fixed-seed PRNG instead of [Random]. *)

type t

val create : seed:int64 -> t
val next : t -> int64
val int : t -> bound:int -> int
(** Uniform in [0, bound); [bound > 0]. *)

val bool : t -> bool
val pick_array : t -> 'a array -> 'a
(** Uniform element from an array — the O(1) variant for hot loops that can
    index their site population once. Raises [Invalid_argument] on empty. *)
