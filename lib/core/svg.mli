(** SVG rendering of problems and solutions.

    Produces a standalone SVG drawing of the control layer: obstacles,
    valves, candidate and used pins, one colour per cluster for internal
    channels, and dashed escape channels. Intended for design review — the
    ASCII renderer ({!Render}) is for terminals and tests. *)

val solution : Solution.t -> string
(** The routed chip with channels coloured per cluster. *)

val save_solution : Solution.t -> path:string -> (unit, string) result
