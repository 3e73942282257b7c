(** Bounded least-recently-used cache, string-keyed.

    The daemon's solution cache: a hashtable over an intrusive
    doubly-linked recency list, so every operation is O(1). Single-threaded
    like the daemon loop that owns it. Hit / miss / eviction counters feed
    the [stats] protocol op. *)

type 'a t

val create : capacity:int -> 'a t
(** Raises [Invalid_argument] on a non-positive capacity. *)

val find : 'a t -> string -> 'a option
(** Promotes the entry to most-recent on hit; counts a hit or a miss. *)

val add : 'a t -> string -> 'a -> unit
(** Insert (evicting the least-recent entry at capacity) or replace (which
    promotes). *)

val length : 'a t -> int
val capacity : 'a t -> int
val hits : 'a t -> int
val misses : 'a t -> int
val evictions : 'a t -> int
