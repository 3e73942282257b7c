type t = {
  channel_width_um : int;
  channel_spacing_um : int;
  valve_size_um : int;
}

let default = { channel_width_um = 10; channel_spacing_um = 10; valve_size_um = 8 }
let grid_pitch_um t = t.channel_width_um + t.channel_spacing_um
let um_of_grid_length t n = n * grid_pitch_um t

