(** Minimum spanning trees for cluster connection topologies (Sec. 3,
    "MST-based cluster routing").

    Vertices are indices [0 .. n-1]; the tree is built by Prim's algorithm
    on the metric closure. *)

type edge = { a : int; b : int; w : int }

val prim : n:int -> weight:(int -> int -> int) -> edge list
(** MST of the complete graph on [n] vertices under the symmetric [weight]
    function. Returns [n-1] edges ([[]] when [n <= 1]). Deterministic. *)

val total_weight : edge list -> int

val is_spanning_tree : n:int -> edge list -> bool
(** [n-1] edges connecting all of [0 .. n-1]. *)
