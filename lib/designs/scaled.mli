(** Chip1-like synthetic family parameterised by a linear scale factor.

    [Scaled s] is a square chip of side [168 * s] cells whose valve,
    cluster, pin and obstacle counts grow linearly in [s] — so the area
    grows quadratically while the routing content grows linearly, as real
    chips grow: routing gets sparser with scale. [s = 6] crosses 1,000,000
    cells. Deterministic per scale (fixed seed), loadable from the CLI as
    [pacor designs --emit Scaled3]. *)

val max_scale : int
(** Largest supported scale (8: a 1344x1344 grid). *)

val scales : int list
(** [1 .. max_scale]. *)

val name : int -> string
(** ["Scaled3"] for scale 3. *)

val of_name : string -> int option
(** Inverse of {!name}; [None] for other strings or out-of-range scales. *)

val spec : int -> Synthetic.spec
(** Raises [Invalid_argument] outside [1 .. max_scale]. *)

val load : int -> (Pacor.Problem.t, string) result
val load_exn : int -> Pacor.Problem.t
