(** Internal representation of a cluster's routed channels, threaded through
    the flow stages (cluster routing -> escape -> detour). *)

open Pacor_geom
open Pacor_grid
open Pacor_valve
open Pacor_dme

(** How a length-matched cluster was internally connected. *)
type lm_shape =
  | Tree of {
      candidate : Candidate.t;
      edge_paths : (int * Path.t) list;
          (** routed path per non-trivial tree edge, keyed by the {e child}
              node id of {!Candidate.t.nodes}; path runs parent -> child *)
    }
  | Pair of { path : Path.t; a : Valve.id; b : Valve.id }
      (** two-valve cluster: the direct channel, [source path = valve a] *)

type t = {
  cluster : Cluster.t;
  shape : lm_shape option;  (** [None] for ordinary (MST / singleton) routes *)
  paths : Path.t list;      (** every internal channel path *)
  claimed : Point.Set.t;    (** all internal cells incl. valve positions *)
}

val make_plain : Cluster.t -> paths:Path.t list -> claimed:Point.Set.t -> t
val make_tree : Cluster.t -> candidate:Candidate.t -> edge_paths:(int * Path.t) list -> t
val make_pair : Cluster.t -> a:Valve.id -> b:Valve.id -> path:Path.t -> t
val make_singleton : Cluster.t -> t
(** Single-valve cluster: no internal channel, claims the valve cell. *)

val internal_length : t -> int
(** Total internal channel length (edges). *)

val start_cells : t -> Point.t list
(** Escape-routing start cells per Sec. 5: tree root for [Tree], middle
    point for [Pair], every claimed cell for ordinary clusters, the valve
    cell for singletons. *)

val escape_anchor_lengths : t -> (Valve.id * int) list
(** For each valve, the routed channel length from the valve to the escape
    start cell (the lengths whose spread the length-matching constraint
    bounds, before adding the common escape path). For ordinary clusters
    this is meaningless and returns []. *)

val chain_lengths : chain:(sink:int -> (int * int) list) -> leg:(int -> int) -> int -> int array
(** For each sink [0 .. sinks - 1], the summed [leg child] over its
    [chain] of (child, parent) edges ({!Pacor_dme.Candidate.chain_index}):
    {!escape_anchor_lengths} from a caller's own index and legs. *)

val is_length_matched_shape : t -> bool
(** The cluster is still being routed under the length-matching regime. *)

val occupy : Pacor_route.Workspace.t -> t -> unit
val vacate : Pacor_route.Workspace.t -> t -> unit
(** Hold or free the [claimed] cells in the workspace's owner layer
    ({!Pacor_route.Workspace.occupy}), under the cluster's id. *)

val spread : t -> int option
(** [max - min] of {!escape_anchor_lengths}; [None] for ordinary routes. *)

val with_edge_path : t -> child:int -> Path.t -> t
(** Replace one tree-edge path (the detour stage's update). Recomputes
    [paths]; [claimed] drops the old leg's interior cells and adds the new
    leg's, which equals a rebuild when the new leg keeps the old one's
    ends and no other leg or valve shares its interior. Raises on
    ordinary routes. *)

