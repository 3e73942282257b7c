(* Four-valued per-cell role layer packed two bits per cell. *)

type t = {
  data : Bytes.t;
  len : int;
}

let bytes_needed len = (len + 3) lsr 2

let create len =
  if len < 0 then invalid_arg "Packed_roles.create: negative length";
  { data = Bytes.make (bytes_needed len) '\000'; len }

let wrap ~len data =
  if Bytes.length data < bytes_needed len then
    invalid_arg "Packed_roles.wrap: buffer smaller than the packed length";
  { data; len }

let length t = t.len

let[@inline] get t i =
  (Char.code (Bytes.unsafe_get t.data (i lsr 2)) lsr ((i land 3) * 2)) land 3

let[@inline] set t i v =
  let byte = i lsr 2 and off = (i land 3) * 2 in
  let old = Char.code (Bytes.unsafe_get t.data byte) in
  Bytes.unsafe_set t.data byte
    (Char.unsafe_chr ((old land lnot (3 lsl off)) lor ((v land 3) lsl off)))

let checked_get t i =
  if i < 0 || i >= t.len then invalid_arg "Packed_roles.checked_get: index out of range";
  get t i

let checked_set t i v =
  if i < 0 || i >= t.len then invalid_arg "Packed_roles.checked_set: index out of range";
  if v < 0 || v > 3 then invalid_arg "Packed_roles.checked_set: role out of range";
  set t i v
