(** Disjoint-set forest with path compression and union by rank.

    Used by the spanning-tree check of {!Mst.is_spanning_tree}. *)

type t

val create : int -> t
(** [create n] starts with singletons [0 .. n-1]. *)

val union : t -> int -> int -> bool
(** [union t a b] merges the two classes; returns [false] when already
    joined. *)

val count : t -> int
(** Number of remaining classes. *)
