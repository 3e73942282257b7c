type t = { mutable state : int64 }

let create ~seed = { state = seed }

(* splitmix64 (Steele, Lea, Flood 2014). *)
let next t =
  t.state <- Int64.add t.state 0x9E3779B97F4A7C15L;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let int t ~bound =
  if bound <= 0 then invalid_arg "Rng.int: non-positive bound";
  let v = Int64.to_int (Int64.shift_right_logical (next t) 2) in
  v mod bound

let bool t = Int64.logand (next t) 1L = 1L

(* One list walk per draw: the former [List.nth xs (int t ~bound:(List.length
   xs))] walked the list once for the length and again for the element — and
   would surface an empty list as [Failure "nth"] rather than a named error. *)
let pick_array t arr =
  if Array.length arr = 0 then invalid_arg "Rng.pick_array: empty array";
  arr.(int t ~bound:(Array.length arr))
