(** Valve activation statuses and sequences ("0-1-X" model, Defs. 1–4).

    Each valve is driven by a sequence of statuses, one per scheduled time
    step: open, closed, or don't-care. Two valves may share a control pin
    exactly when their sequences are compatible at every step. *)

type status =
  | Open        (** "0": the valve is open at this step. *)
  | Closed      (** "1": the valve is closed at this step. *)
  | Dont_care   (** "X": either state is acceptable. *)

val status_compatible : status -> status -> bool
(** Def. 2: equal, or either side is [Dont_care]. *)

val status_meet : status -> status -> status option
(** Most constrained status satisfying both; [None] when incompatible. *)

type sequence = status array
(** Def. 1: an activation sequence. All sequences of one chip have equal
    length [n] (the number of scheduled time steps). *)

val sequence_of_string : string -> (sequence, string) result
val string_of_sequence : sequence -> string
val char_of_status : status -> char

val compatible : sequence -> sequence -> bool
(** Def. 3: pointwise compatibility. Sequences of different lengths are
    incompatible (they cannot come from the same schedule). *)

val meet : sequence -> sequence -> sequence option
(** Pointwise meet; the sequence a shared control pin would drive. *)

val all_dont_care : int -> sequence
(** A sequence compatible with everything — valves with no switching
    requirement. *)
