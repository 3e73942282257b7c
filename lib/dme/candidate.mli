(** Top-down DME phase: embedding merging nodes and enumerating candidate
    Steiner trees (Sec. 4.1, Fig. 3).

    Different merging-node choices inside the merging regions yield
    different candidate trees, each (approximately) length-balanced. This
    module samples root placements, embeds each choice top-down — snapping
    to the routing grid and dodging obstacles by expanding-ring search —
    and reports the geometry plus the estimated per-sink full-path lengths
    (Def. 5) and the length mismatch [DeltaL] (Eq. 1). *)

open Pacor_geom
open Pacor_grid

type edge = { parent_pos : Point.t; child_pos : Point.t }

type node = {
  id : int;                         (** 0 is always the root *)
  pos : Point.t;
  parent : int option;              (** [None] only for the root *)
  sink : int option;                (** leaf nodes carry their sink index *)
}

type t = {
  root : Point.t;
  nodes : node list;
      (** embedded tree, preorder, root first; node [i] has id [i] *)
  edges : edge list;                (** non-trivial tree edges, parent first *)
  sinks : Point.t array;            (** sink positions, index-aligned *)
  full_path_lengths : int array;    (** per sink: Manhattan estimate, Def. 5 *)
  mismatch : int;                   (** DeltaL = max - min full path, Eq. 1 *)
  total_estimate : int;             (** sum of edge Manhattan lengths *)
}

val chain_to_root : t -> sink:int -> (int * int) list
(** Tree edges from the given sink up to the root as (child id, parent id)
    pairs, nearest-the-sink first — the {e path sequence} order of Def. 6.
    Zero-length edges (coincident embeddings) are included. *)

val chain_index : t -> sink:int -> (int * int) list
(** [chain_index t] indexes [t]'s nodes once; the function it returns is
    {!chain_to_root}[ t], one array read per chain step. Walk every sink
    of a tree through one index. *)

val nodes_by_id : t -> node array
(** [nodes] as an array, which node ids index. Raises [Invalid_argument]
    when node [i] of [nodes] does not have id [i]. *)

val enumerate :
  grid:Routing_grid.t ->
  usable:(Point.t -> bool) ->
  ?max_candidates:int ->
  Point.t list ->
  t list
(** [enumerate ~grid ~usable sinks] builds the balanced-bipartition
    topology, runs the bottom-up merge, and embeds up to [max_candidates]
    (default 8) distinct candidates from sampled root placements, sorted by
    (mismatch, total length estimate). Singleton input yields the single
    trivial candidate. *)

val edge_ends : t -> (Point.t * Point.t) list
val pp : Format.formatter -> t -> unit
