(** Maximum clique and maximum weight clique.

    The paper leans on clique machinery twice: valve clustering is a clique
    cover of the compatibility graph (Sec. 3), and candidate-Steiner-tree
    selection is formulated as a maximum {e weight} clique problem with node
    weights (length-mismatch cost, Eq. 2) and edge weights (overlap cost,
    Eq. 3). The tests keep this generic solver as the oracle for the
    literal MWCP formulation of selection (test/mwcp_clique.ml), which
    cross-checks {!Pacor_select.Tree_select}'s exact search. *)

type graph = {
  n : int;
  adjacent : int -> int -> bool;  (** irreflexive, symmetric *)
}

val of_matrix : bool array array -> graph
(** Validates squareness and symmetry; diagonal is ignored. *)

val max_clique : graph -> int list
(** Exact maximum cardinality clique (branch and bound with a greedy
    colouring upper bound). Sorted vertex list; [[]] only when [n = 0]. *)

val greedy_clique : graph -> int list
(** Fast maximal clique grown from the highest-degree vertex. *)

(** Weighted cliques: total weight = sum of member node weights plus sum of
    member-pair edge weights. Weights may be negative (the paper's costs
    are), so the best clique may be empty unless [forced] pins vertices. *)

type weighted = {
  graph : graph;
  node_weight : int -> float;
  edge_weight : int -> int -> float;  (** only read on adjacent pairs *)
}

val max_weight_clique : ?forced:int list -> weighted -> int list * float
(** Exact maximum weight clique containing all [forced] vertices (which must
    themselves form a clique). Returns the sorted clique and its weight. *)

val clique_weight : weighted -> int list -> float

val is_clique : graph -> int list -> bool
