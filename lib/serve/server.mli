(** The routing daemon: a long-lived process that parses once, routes once,
    and then answers design-loop edits by re-routing only what each edit
    dirties.

    State: a {e session store} (named, mutable solutions, each holding its
    response fields rendered once per write: a [get] reads them, with no
    validation and no fingerprint), a
    fingerprint-keyed {e LRU solution cache} whose entries pre-render their
    response so cache hits replay byte-identical bytes (a second LRU maps
    the digest of a route's raw instance text to its fingerprint, so a
    byte-identical repeat skips the parse), a {e warm workspace
    pool} (one leased per connection, arrays stay grown), and a {e poisoned
    set} remembering request fingerprints that crashed the engine so one bad
    instance cannot crash-loop the daemon.

    Deltas ([move_valve], [add_obstacle], …) go through the fault layer's
    re-route core ({!Pacor_fault.Repair.reroute}): mutate the problem,
    compute the dirty cluster set, rip up and re-route exactly that. The
    incremental result is served iff its {e certificate} holds — it
    validates, quarantined nothing (fault injection excepted, where
    quarantine is the contract), and ran within budget; otherwise the
    mutated problem is routed from scratch and the lexicographically better
    answer on (routed valves, total length) wins. Every request runs under
    a per-request {!Pacor_route.Budget} when the request carries
    ["limits"].

    Single-threaded by design: one [Unix.select] loop multiplexes stdin
    and TCP connections, and every mutable structure above is owned by that
    loop.

    Crash-only and overload-controlled: every session mutation is fsync'd
    to an optional {!Journal} before it is acknowledged ({!recover} replays
    it at startup), request lines are length-capped ({!Linebuf}), writes
    are buffered per connection and flushed through the select write set
    (a slow reader accumulates until a high-water mark sheds it, instead of
    stalling every other client), connections are capped (excess accepts
    get one [busy] error line), idle connections are reaped on a periodic
    tick, and a bounded replay cache keyed by request id lets clients
    re-send a request whose response was lost without executing it twice. *)

type t

val create :
  ?cache_capacity:int ->
  ?limits:Pacor_route.Budget.limits ->
  ?replay_capacity:int ->
  ?journal:Journal.t ->
  unit ->
  t
(** Fresh daemon state. [cache_capacity] bounds the solution LRU (default
    64 entries); [limits] is the default per-request budget (default
    unlimited); [replay_capacity] bounds the retry replay cache
    (default 256 responses); [journal] makes every session mutation
    durable. *)

val recover : t -> int
(** Replay the attached journal's surviving sessions into the session
    store — parse each canonical problem text, route it, bind it at its
    recorded revision — and return how many came back. Records that no
    longer parse or route are skipped with a stderr warning (crash-only:
    partial recovery beats refusing to start). 0 without a journal. *)

type outcome = {
  line : string;  (** the response, newline not included *)
  stop : bool;    (** a shutdown was requested *)
}

val handle : ?workspace:Pacor_route.Workspace.t -> t -> string -> outcome
(** Process one request line, total: any input yields exactly one response
    line, never an exception. Pass [workspace] to reuse a warm workspace
    across calls (the I/O loop passes the connection's leased one; tests
    and the bench drive this directly); otherwise one is leased from the
    pool per call. *)

val session_solution : t -> string -> Pacor.Solution.t option
(** The named session's current solution, the one its [get] describes. *)

val take_workspace : t -> Pacor_route.Workspace.t
val return_workspace : t -> Pacor_route.Workspace.t -> unit

val stats_result : t -> Json.t
(** The [stats] op's result object (also handy for the bench). Includes the
    solution cache's counters, the raw-text key map's ([raw_keys]: size,
    hits, misses), the overload counters ([busy_rejected],
    [oversized_lines], [idle_reaped], [shed]) and the bounded-memory
    gauges ([max_pending_bytes], [max_outgoing_bytes]) the chaos soak
    asserts on. *)

val listen : port:int -> Unix.file_descr * int
(** Bind and listen on 127.0.0.1:[port] (0 picks an ephemeral port) and
    announce the actual port on stderr. Exposed so a supervisor can bind
    {e once} and pass the inherited socket to every restarted worker via
    [serve_loop ~listen_fd] — restarts then never race a rebind and
    clients reconnect to the same port. *)

val default_max_conns : int
val default_high_water : int

val serve_loop :
  ?stdio:bool ->
  ?port:int ->
  ?listen_fd:Unix.file_descr ->
  ?max_conns:int ->
  ?max_line:int ->
  ?high_water:int ->
  ?idle_timeout_s:float ->
  ?tick_s:float ->
  t ->
  unit
(** Run the daemon until a [shutdown] request or until every input source
    is gone. [stdio] (default true) serves line-per-request on
    stdin/stdout; [port] additionally listens on 127.0.0.1 (port [0] picks
    an ephemeral port, announced on stderr); [listen_fd] serves an
    already-bound socket instead (see {!listen}). Each connection leases a
    warm workspace for its lifetime. EOF closes a connection; [shutdown]
    from any connection stops the daemon (after flushing queued
    responses).

    Overload knobs: at most [max_conns] simultaneous connections (excess
    accepts are answered with one [busy] error line and closed, no
    workspace leased); request lines over [max_line] bytes cost one
    [parse] error and are discarded without buffering; a connection more
    than [high_water] bytes behind on reads is shed. The loop wakes at
    least every [tick_s] seconds to reap connections idle longer than
    [idle_timeout_s] (their workspaces return to the pool) and to let the
    journal compact. *)
