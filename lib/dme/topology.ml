open Pacor_geom

type t =
  | Leaf of int
  | Node of t * t

let rec leaves = function
  | Leaf i -> [ i ]
  | Node (l, r) -> leaves l @ leaves r

let rec size = function Leaf _ -> 1 | Node (l, r) -> size l + size r
let rec depth = function Leaf _ -> 1 | Node (l, r) -> 1 + Int.max (depth l) (depth r)

let exhaustive_threshold = 12

(* The first cheapest balanced split of the [n] local sinks [idx], as
   (left, right) positions in ascending order. Combinations are walked in
   lexicographic order over one table of pairwise distances; a later
   split replaces the best only when strictly cheaper. For even [n]
   position 0 stays on the left, which kills the mirror symmetry; for odd
   [n] the sides differ in size, so every [n / 2]-subset is a left side. *)
let cheapest_split arr idx =
  let n = Array.length idx in
  let d = Array.make (n * n) 0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      d.((i * n) + j) <- Point.manhattan arr.(idx.(i)) arr.(idx.(j))
    done
  done;
  let fixed = if n mod 2 = 0 then 1 else 0 in
  let k = (n / 2) - fixed in
  let comb = Array.init k (fun i -> fixed + i) in
  let best = ref max_int and best_mask = ref 0 and more = ref true in
  while !more do
    let mask = Array.fold_left (fun m c -> m lor (1 lsl c)) fixed comb in
    let dl = ref 0 and dr = ref 0 in
    for i = 0 to n - 1 do
      let side = (mask lsr i) land 1 in
      for j = i + 1 to n - 1 do
        if (mask lsr j) land 1 = side then begin
          let dij = Array.unsafe_get d ((i * n) + j) in
          if side = 1 then dl := Int.max !dl dij else dr := Int.max !dr dij
        end
      done
    done;
    if !dl + !dr < !best then begin
      best := !dl + !dr;
      best_mask := mask
    end;
    (* Next combination: bump the rightmost slot with room and reset the
       slots after it to follow it. *)
    let i = ref (k - 1) in
    while !i >= 0 && comb.(!i) = n - k + !i do decr i done;
    if !i < 0 then more := false
    else begin
      comb.(!i) <- comb.(!i) + 1;
      for j = !i + 1 to k - 1 do comb.(j) <- comb.(j - 1) + 1 done
    end
  done;
  let side bit = List.filter (fun i -> (!best_mask lsr i) land 1 = bit) (List.init n Fun.id) in
  (side 1, side 0)

(* Median split along the wider axis: the first half in (major, minor)
   coordinate order, ties in position order, and the rest. *)
let median_split arr idx =
  let n = Array.length idx in
  let pt i = arr.(idx.(i)) in
  let range coord =
    let lo = ref max_int and hi = ref min_int in
    for i = 0 to n - 1 do
      lo := Int.min !lo (coord (pt i));
      hi := Int.max !hi (coord (pt i))
    done;
    !hi - !lo
  in
  let by_x = range (fun (p : Point.t) -> p.x) >= range (fun (p : Point.t) -> p.y) in
  let key i : Point.t = let p = pt i in if by_x then p else { x = p.y; y = p.x } in
  let sorted = List.stable_sort (fun a b -> Point.compare (key a) (key b)) (List.init n Fun.id) in
  (List.filteri (fun r _ -> r < n / 2) sorted, List.filteri (fun r _ -> r >= n / 2) sorted)

let balanced_bipartition points =
  if points = [] then invalid_arg "Topology.balanced_bipartition: no sinks";
  let arr = Array.of_list points in
  (* [build idx] returns the topology over the given sink indices. *)
  let rec build idx =
    match Array.length idx with
    | 1 -> Leaf idx.(0)
    | 2 -> Node (Leaf idx.(0), Leaf idx.(1))
    | n ->
      let left, right =
        if n <= exhaustive_threshold then cheapest_split arr idx else median_split arr idx
      in
      let resolve side = Array.of_list (List.map (fun i -> idx.(i)) side) in
      Node (build (resolve left), build (resolve right))
  in
  build (Array.init (Array.length arr) Fun.id)

let rec is_balanced = function
  | Leaf _ -> true
  | Node (l, r) -> abs (size l - size r) <= 1 && is_balanced l && is_balanced r

let rec pp ppf = function
  | Leaf i -> Format.fprintf ppf "%d" i
  | Node (l, r) -> Format.fprintf ppf "(%a %a)" pp l pp r

let alternatives points =
  let n = List.length points in
  let bb = balanced_bipartition points in
  if n = 3 then begin
    (* The three pairings (i j) k. *)
    let variants =
      [ Node (Node (Leaf 0, Leaf 1), Leaf 2);
        Node (Node (Leaf 0, Leaf 2), Leaf 1);
        Node (Node (Leaf 1, Leaf 2), Leaf 0) ]
    in
    bb :: List.filter (fun t -> t <> bb) variants
  end
  else if n = 4 then begin
    let pairing (a, b) (c, d) = Node (Node (Leaf a, Leaf b), Node (Leaf c, Leaf d)) in
    let variants =
      [ pairing (0, 1) (2, 3); pairing (0, 2) (1, 3); pairing (0, 3) (1, 2) ]
    in
    bb :: List.filter (fun t -> t <> bb) variants
  end
  else [ bb ]
