(** The valve-compatibility graph and its clustering-quality metrics.

    Vertices are valves, edges join compatible pairs (Def. 4). Broadcast
    addressing is a clique cover of this graph, so its structure bounds the
    achievable pin count: any independent set is a set of valves that can
    never share pins (lower bound), while the greedy clique cover used by
    the flow gives the upper bound actually achieved. *)

type t

val build : Valve.t list -> t
(** O(n^2) pairwise compatibility. Duplicate ids are rejected. *)

val valve_count : t -> int

val density : t -> float
(** Edges over possible pairs; 1.0 for fully compatible valve sets. *)

val compatible : t -> Valve.id -> Valve.id -> bool
val degree : t -> Valve.id -> int

val pin_bounds : t -> int * int
(** [(lower, upper)] pin-count bounds. [lower] is the size of a greedily
    built independent set: no addressing scheme needs fewer control pins.
    [upper] is the number of clusters the flow's greedy clique cover
    produces (without length-matching seeds), the pin count actually
    used. [lower <= optimum <= upper]. *)

val pp_summary : Format.formatter -> t -> unit
