(** Fabrication design rules for the control layer.

    The paper routes on a uniform grid whose pitch is derived from the
    minimum channel width and the minimum channel spacing: two channels on
    adjacent grid tracks are then automatically spacing-clean, so the router
    only needs to keep paths vertex-disjoint. *)

type t = {
  channel_width_um : int;   (** minimum control-channel width, micrometres *)
  channel_spacing_um : int; (** minimum channel-to-channel spacing *)
  valve_size_um : int;      (** valve footprint edge length *)
}

val default : t
(** 10 um channels, 10 um spacing, 8 um valves — the mVLSI scale quoted in
    the paper's introduction (valves of 8x8 um^2). *)

val grid_pitch_um : t -> int
(** Distance between adjacent routing tracks: width + spacing. *)

val um_of_grid_length : t -> int -> int
(** Convert a channel length counted in grid edges to micrometres. *)

