(** Line-protocol JSON: a hand-rolled value type, emitter and total parser.

    The container ships no JSON library, and the daemon's needs are small —
    one value per protocol line — so this stays deliberately minimal:
    strict enough to reject malformed requests with a useful byte offset,
    lenient where strictness buys nothing (lone surrogates pass through,
    out-of-range integers degrade to floats). Object field order is
    preserved on both sides: the responder relies on emitting ["result"]
    last so shell pipelines can split a response with one [sed]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list  (** field order preserved *)

val to_string : t -> string
(** Single line (no pretty-printing, no trailing newline). Non-finite
    floats emit as [null]. *)

val to_buffer : Buffer.t -> t -> unit

val of_string : string -> (t, string) result
(** Total: any malformed input comes back as [Error] with a byte offset,
    never an exception. Exactly one value is expected; trailing non-space
    input is an error. *)

(** {2 Accessors} — shape probes, all total. *)

val member : string -> t -> t option
(** Field of an [Obj]; [None] on missing field or non-object. *)

val string_opt : t -> string option
val int_opt : t -> int option

val float_opt : t -> float option
(** Accepts [Int] too (a request writing [{"timeout_s":2}] means 2.0). *)

val bool_opt : t -> bool option
