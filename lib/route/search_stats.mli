(** Instrumentation counters for the routing searches.

    One mutable record is shared by every search running on a
    {!Workspace.t}, so a whole engine stage (or a whole routed problem)
    accumulates into a single place. Counters are monotone; stages are
    delimited by taking {!snapshot}s and {!diff}ing them, never by
    resetting mid-flight. *)

type t
(** Mutable monotone counters. *)

type snapshot = {
  searches : int;     (** A* / bounded-A* searches started *)
  refused : int;      (** bounded-A* searches answered [None] by the
                          {!Block_cut} certificate before any pop; also
                          counted in [searches] *)
  pops : int;         (** priority-queue pops (incl. stale lazy-delete pops) *)
  pushes : int;       (** priority-queue pushes *)
  touched : int;      (** in-bounds neighbour cells examined, whether or not
                          enterable (the old [relaxations] counted these —
                          plus out-of-bounds points — as relaxations) *)
  relaxations : int;  (** touched cells that passed the enterable and
                          not-yet-closed checks, i.e. actual distance-label
                          relaxation attempts; always [<= touched] *)
  resets : int;       (** workspace epoch bumps (O(1) lazy resets) *)
  grid_allocs : int;  (** grid-sized array allocation events — stays flat
                          once the workspace has grown to the problem size *)
}

val create : unit -> t
val reset : t -> unit

val started : t -> unit
val refused : t -> unit
val popped : t -> unit
val pushed : t -> unit
val touched : t -> unit
val relaxed : t -> unit
val reset_noted : t -> unit
val grid_alloc_noted : t -> unit

val snapshot : t -> snapshot

val charge : t -> snapshot -> unit
(** [charge t s] adds every count of [s] to [t]: for a search that tallies
    its work in locals and charges it once, or only when the caller keeps
    its result (the escape stage's seed BFS, which is not charged when it
    finds independent groups that are then solved one by one). *)

val zero : snapshot

val diff : snapshot -> snapshot -> snapshot
(** [diff later earlier] is the per-field difference — the activity between
    the two snapshots. *)

val add : snapshot -> snapshot -> snapshot

val is_zero : snapshot -> bool

val pp : Format.formatter -> snapshot -> unit
(** One line:
    [searches=… refused=… pops=… pushes=… touched=… relax=… resets=… allocs=…]. *)
