(* Balanced bipartition as it stood before the pairwise-distance walk:
   every balanced split enumerated as an index list, membership tested
   with [List.mem], and the first cheapest split kept by a fold. Kept
   verbatim (polymorphic comparisons included) as the oracle that
   [Pacor_dme.Topology.balanced_bipartition] and [alternatives] must match
   topology for topology. *)

open Pacor_geom
open Pacor_dme.Topology

let diameter pts =
  let rec go acc = function
    | [] -> acc
    | p :: rest ->
      go (List.fold_left (fun a q -> max a (Point.manhattan p q)) acc rest) rest
  in
  go 0 pts

(* Enumerate subsets of size k of indices [0..n-1] as index lists. *)
let rec subsets_of_size k from n =
  if k = 0 then [ [] ]
  else if from >= n then []
  else
    let with_from = List.map (fun s -> from :: s) (subsets_of_size (k - 1) (from + 1) n) in
    with_from @ subsets_of_size k (from + 1) n

let exhaustive_threshold = 12

let balanced_bipartition points =
  if points = [] then invalid_arg "Topology.balanced_bipartition: no sinks";
  let arr = Array.of_list points in
  let rec build idxs =
    match idxs with
    | [] -> assert false
    | [ i ] -> Leaf i
    | [ i; j ] -> Node (Leaf i, Leaf j)
    | _ ->
      let n = List.length idxs in
      let half = n / 2 in
      let local = Array.of_list idxs in
      let split =
        if n <= exhaustive_threshold then begin
          let choices =
            if n mod 2 = 0 then
              List.map (fun c -> 0 :: c) (subsets_of_size (half - 1) 1 n)
            else subsets_of_size half 0 n
          in
          let eval choice =
            let in_left i = List.mem i choice in
            let left = List.filter in_left (List.init n Fun.id) in
            let right = List.filter (fun i -> not (in_left i)) (List.init n Fun.id) in
            let dia side = diameter (List.map (fun i -> arr.(local.(i))) side) in
            (dia left + dia right, left, right)
          in
          let best =
            List.fold_left
              (fun acc choice ->
                 let (cost, _, _) as cand = eval choice in
                 match acc with
                 | Some (bcost, _, _) when bcost <= cost -> acc
                 | _ -> Some cand)
              None choices
          in
          (match best with
           | Some (_, left, right) -> (left, right)
           | None -> assert false)
        end
        else begin
          let pts = List.map (fun i -> (i, arr.(local.(i)))) (List.init n Fun.id) in
          let xs = List.map (fun (_, (p : Point.t)) -> p.x) pts in
          let ys = List.map (fun (_, (p : Point.t)) -> p.y) pts in
          let range vs = List.fold_left max min_int vs - List.fold_left min max_int vs in
          let key =
            if range xs >= range ys then fun (_, (p : Point.t)) -> (p.x, p.y)
            else fun (_, (p : Point.t)) -> (p.y, p.x)
          in
          let sorted = List.sort (fun a b -> compare (key a) (key b)) pts in
          let idxs_sorted = List.map fst sorted in
          let rec take k = function
            | [] -> ([], [])
            | x :: rest ->
              if k = 0 then ([], x :: rest)
              else begin
                let l, r = take (k - 1) rest in
                (x :: l, r)
              end
          in
          take half idxs_sorted
        end
      in
      let left, right = split in
      let resolve side = List.map (fun i -> local.(i)) side in
      Node (build (resolve left), build (resolve right))
  in
  build (List.init (Array.length arr) Fun.id)

let alternatives points =
  let n = List.length points in
  let bb = balanced_bipartition points in
  if n = 3 then begin
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
