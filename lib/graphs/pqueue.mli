(** Imperative binary min-heap of [int] elements keyed by [int] priorities.

    Shared by the A* searches (plain and bounded-length), the min-cost-flow
    Dijkstra rounds and the reference min-cost-flow solver. Supports lazy
    decrease-key: push duplicates and let consumers skip stale pops.
    Priorities and elements live in two unboxed [int array]s, so sifting
    never touches the GC's write barrier. *)

type t

val create : unit -> t
val is_empty : t -> bool
val size : t -> int

val capacity : t -> int
(** Entries the heap holds before it next grows. *)

val push : t -> prio:int -> int -> unit

val pop : t -> (int * int) option
(** Smallest priority first; ties popped in unspecified (but deterministic
    for a fixed push/pop/clear sequence) order. *)

val pop_top : t -> int
(** Like {!pop} but returns the element alone, without allocating the
    option/tuple box — the searchers' hot path. Raises [Invalid_argument]
    on an empty queue; guard with {!is_empty}. *)

val clear : t -> unit
(** Empties the queue in O(1), keeping its capacity. *)
