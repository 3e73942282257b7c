(** Deterministic socket-level fault injector for the chaos soak.

    A [t] is a seeded splitmix64 stream: the sequence of faults it deals,
    the tear points it picks and the garbage it emits are a pure function
    of the seed, so a failing soak replays byte-identically. Faults model
    the serving layer's threat inventory: torn writes (a request line
    arriving in arbitrary chunks), line noise (garbage bytes the daemon
    must answer with one parse error), mid-request disconnects (the client
    must reconnect and re-send with ["retry"]:true), and worker SIGKILLs
    between requests (the supervisor must restart, the journal must bring
    the sessions back).

    Injection composes with {!Client.set_sender}: the harness picks a
    fault per request, SIGKILLs the worker itself when the fault is
    {!Kill_worker} (it owns the pidfile; kills land {e between} requests
    so every delta applies exactly once), and lets {!apply} do the
    socket-level damage on attempt 0. Retries always go out clean — a
    mid-request fault exists to force the retry path, not to starve it. *)

type fault =
  | Clean
  | Torn            (** line written in two chunks, cut anywhere *)
  | Garbage_before  (** a line of non-JSON noise precedes the request *)
  | Disconnect_mid  (** a prefix is written, then the link is abandoned *)
  | Kill_worker     (** the harness SIGKILLs the worker before the send *)

exception Injected_disconnect
(** Raised by {!apply} on {!Disconnect_mid}; {!Client} treats any sender
    exception as connection loss. *)

type t

val create : ?seed:int -> ?weights:(fault * int) list -> unit -> t
(** Deterministic in [seed] (default 1). [weights] sets the relative
    frequency of each fault (default 60/14/12/9/5 clean/torn/garbage/
    disconnect/kill); zero-weight faults never occur. *)

val pick : t -> fault
(** Deal the next fault in the seeded sequence (and count it). *)

val apply : t -> fault -> attempt:int -> Unix.file_descr -> string -> unit
(** Write a request line (newline included) through the lens of [fault] —
    the {!Client.set_sender} signature, partially applied. [attempt > 0]
    writes clean regardless of [fault]. *)

val counts : t -> (string * int) list
(** How often each fault was dealt, as [(label, count)] pairs in a fixed
    order — the soak's survival-report material. *)
