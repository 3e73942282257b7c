(** Fixed-size worker pool for batch routing: a mutex-guarded task
    queue drained by worker domains.

    A pool spawns [min jobs (Domain.recommended_domain_count ())] worker
    domains by default, so [jobs > cores] does not oversubscribe the
    machine with domains fighting the GC. Each domain owns one routing
    context — a {!Pacor_route.Workspace.t} (and the
    {!Pacor_route.Search_stats.t} implicit in it) — for its lifetime, so
    a task never shares a workspace with a concurrently executing task
    and a worker's warm arrays persist across the tasks it executes.

    Determinism contract: {!map} and {!map_ctx} return results in input
    order, regardless of which worker ran which task or in what order
    tasks finished. A task that raises has its exception (with backtrace)
    captured and re-raised at the join point — the exception of the
    earliest-indexed failing task wins, so failure reporting is
    deterministic too. The remaining tasks still run to completion; a
    failing task never wedges the pool.

    Each [map] call waits on its own mutex/condition pair, so concurrent
    [map_ctx] calls from different domains on one pool are safe (they
    interleave on the queue but cannot lose each other's completion
    wakeups). {!shutdown} joins every domain. *)

type t

type worker
(** The per-task routing context handed to {!map_ctx} callbacks. *)

val worker_workspace : worker -> Pacor_route.Workspace.t
(** The context's private search workspace. Valid only inside the task
    callback the context was handed to. *)

val create : ?domains:int -> jobs:int -> unit -> t
(** Spawns [min jobs (Domain.recommended_domain_count ())] worker
    domains, or exactly [domains] when given (tests and benches use this
    to force oversubscription on small machines).
    @raise Invalid_argument if [jobs < 1] or [domains] is outside
    [1, jobs]. *)

val jobs : t -> int

val map_ctx : t -> (worker -> 'a -> 'b) -> 'a list -> 'b list
(** [map_ctx pool f xs] runs [f worker x] for every element on the pool
    and blocks until all are done. Results come back in input order.
    Raises the earliest-indexed task exception, if any, after all tasks
    have settled.
    @raise Invalid_argument on a pool that has been shut down. *)

val try_map_ctx : t -> (worker -> 'a -> 'b) -> 'a list -> ('b, exn) result list
(** Fault-isolated {!map_ctx}: a raising task yields [Error exn] in its
    input-order slot instead of poisoning the whole call, and every other
    task still runs to completion. The pool stays healthy — no domain is
    lost, and [shutdown] joins normally afterwards.
    @raise Invalid_argument on a pool that has been shut down. *)


val shutdown : t -> unit
(** Lets the workers drain the queue, then joins all worker domains.
    Idempotent. *)

val with_pool : ?domains:int -> jobs:int -> (t -> 'b) -> 'b
(** [with_pool ~jobs f] brackets [create]/[shutdown] around [f]. *)

val map : jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** One-shot convenience: [with_pool ~jobs] around a [map_ctx] that
    ignores the worker context. [map ~jobs:1] still routes the work
    through a single worker domain, preserving the exception and
    ordering semantics of the parallel path. *)
