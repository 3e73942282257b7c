(** Bounded line reassembly for the wire protocol.

    A connection's read side delivers arbitrary byte chunks; the protocol
    wants newline-terminated request lines. This buffer splits chunks back
    into lines while holding a hard byte cap: the moment a line-in-progress
    would exceed [max_line], one {!Overflow} event fires, the partial bytes
    are dropped, and everything up to the next newline is discarded — so a
    hostile or broken peer can grow a connection's pending buffer to at
    most [max_line] bytes, ever, and costs exactly one protocol error per
    oversized line instead of unbounded memory. *)

type t

type event =
  | Line of string
      (** one complete request line, newline stripped, byte-exact *)
  | Overflow
      (** a line exceeded [max_line]; its bytes (and the rest of it, up to
          the next newline) are being discarded. One event per oversized
          line, fired at the moment the cap is crossed. *)

val create : ?max_line:int -> unit -> t
(** [max_line] defaults to {!default_max_line}. Raises [Invalid_argument]
    on a non-positive cap. *)

val default_max_line : int
(** 4 MiB: far above any legitimate instance text (the whole committed
    corpus is under 8 KiB), small enough that even a full house of capped
    connections stays bounded. *)

val feed : t -> bytes -> int -> int -> event list
(** Consume [len] bytes of [chunk] starting at [off]; return the events
    they complete, in arrival order. *)

val feed_string : t -> string -> event list

val pending : t -> int
(** Bytes buffered towards the next line. Invariant: [pending t <= max_line]
    — the cap is enforced during {!feed}, not after. *)

val high_water : t -> int
(** Most bytes ever buffered at once — the daemon's bounded-memory gauge.
    Invariant: [high_water t <= max_line]. *)
