type t = { x : int; y : int }

let make x y = { x; y }
let manhattan a b = abs (a.x - b.x) + abs (a.y - b.y)
let chebyshev a b = Int.max (abs (a.x - b.x)) (abs (a.y - b.y))
let add a b = { x = a.x + b.x; y = a.y + b.y }
let sub a b = { x = a.x - b.x; y = a.y - b.y }

let midpoint a b =
  (* Integer division truncates toward zero; offsetting by the first point
     keeps the result between the two points for any sign. *)
  { x = a.x + ((b.x - a.x) / 2); y = a.y + ((b.y - a.y) / 2) }

let equal a b = a.x = b.x && a.y = b.y
let compare a b = if a.x <> b.x then Int.compare a.x b.x else Int.compare a.y b.y
let hash a = (a.x * 1_000_003) lxor a.y
let pp ppf a = Format.fprintf ppf "(%d,%d)" a.x a.y

let neighbours4 p =
  [ { p with x = p.x + 1 }; { p with x = p.x - 1 };
    { p with y = p.y + 1 }; { p with y = p.y - 1 } ]

let ring c r =
  if r < 0 then invalid_arg "Point.ring: negative radius"
  else if r = 0 then [ c ]
  else begin
    let acc = ref [] in
    (* Top and bottom rows of the square loop. *)
    for dx = -r to r do
      acc := { x = c.x + dx; y = c.y + r } :: { x = c.x + dx; y = c.y - r } :: !acc
    done;
    (* Left and right columns, excluding the corners already listed. *)
    for dy = -r + 1 to r - 1 do
      acc := { x = c.x + r; y = c.y + dy } :: { x = c.x - r; y = c.y + dy } :: !acc
    done;
    !acc
  end

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)
