(** Plain-text problem instance format, so external designs can be routed
    with the CLI and instances can be archived with experiments.

    Line-oriented; [#] starts a comment; blank lines ignored:

    {v
    name     <string>
    grid     <width> <height>
    delta    <int>
    obstacle <x0> <y0> <x1> <y1>      # inclusive rectangle, repeatable
    valve    <id> <x> <y> <sequence>  # sequence over 0/1/X, repeatable
    cluster  <id> <valve-id> ...      # length-matched cluster, repeatable
    pin      <x> <y>                  # candidate control pin, repeatable
    v} *)

val to_string : Problem.t -> string
(** Canonical: obstacle cells, valves, cluster lines and pins are sorted
    (by point, id, id and point respectively), so problems that are equal
    as values render byte-identically whatever order their parts were
    supplied in. [of_string (to_string p)] re-parses to a problem whose
    own [to_string] is byte-identical — the fixpoint the serving cache
    keys on. *)

val fingerprint : Problem.t -> string
(** Content hash (hex digest) of the canonical {!to_string} rendering.
    Equal problems — however constructed or reordered — share a
    fingerprint; the serving layer's solution-cache key. *)

val text_fingerprint : string -> string
(** [text_fingerprint (to_string p) = fingerprint p], for a caller that
    already holds the canonical text. *)

val of_string : string -> (Problem.t, string) result
(** Total: never raises, whatever the input. Malformed integers, unknown
    directives, non-positive or oversized grids (> 16M cells), duplicate
    valve or cluster ids, out-of-grid valves or pins, and clusters
    referencing unknown valves all come back as [Error]. Obstacle
    rectangles are clamped to the grid (fully off-grid ones block
    nothing). *)

val save : Problem.t -> path:string -> (unit, string) result

val load : path:string -> (Problem.t, string) result
(** Total like {!of_string}; I/O failures come back as [Error] too. *)
