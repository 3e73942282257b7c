open Pacor_geom
open Pacor_dme

type solver = Exact

type config = {
  lambda : float;
  solver : solver;
}

let default_config = { lambda = 0.1; solver = Exact }

(* Eq. (4): overlap of the two edges' bounding boxes, normalised by the
   smaller box. Eq. (3) sums it over all cross pairs. *)
let edge_overlap (a1, a2) (b1, b2) =
  let ba = Rect.of_points a1 a2 and bb = Rect.of_points b1 b2 in
  let ov = Rect.overlap_cells ba bb in
  if ov = 0 then 0.0
  else float_of_int ov /. float_of_int (Int.min (Rect.cells ba) (Rect.cells bb))

let overlap_cost ca cb =
  let ea = Candidate.edge_ends ca and eb = Candidate.edge_ends cb in
  List.fold_left
    (fun acc e1 -> List.fold_left (fun a e2 -> a +. edge_overlap e1 e2) acc eb)
    0.0 ea

let max_mismatch per_cluster =
  List.fold_left
    (fun acc cands ->
       List.fold_left (fun a (c : Candidate.t) -> Int.max a c.mismatch) acc cands)
    0 per_cluster

let mismatch_cost per_cluster (c : Candidate.t) =
  let m = max_mismatch per_cluster in
  if m = 0 then 0.0 else float_of_int c.mismatch /. float_of_int m

type selection = {
  chosen : Candidate.t list;
  objective : float;
}

(* MWCP weights: node weight Cm = -lambda * normalised mismatch (Eq. 2),
   edge weight Co = -(1-lambda) * overlap (Eq. 3). *)
let node_weight ~lambda ~norm (c : Candidate.t) =
  if norm = 0 then 0.0 else -.lambda *. (float_of_int c.mismatch /. float_of_int norm)

let pair_weight ~lambda ca cb = -.(1.0 -. lambda) *. overlap_cost ca cb

let selection_weight ~lambda per_cluster chosen =
  let norm = max_mismatch per_cluster in
  let nodes = List.fold_left (fun a c -> a +. node_weight ~lambda ~norm c) 0.0 chosen in
  let rec pairs acc = function
    | [] -> acc
    | c :: rest ->
      pairs (List.fold_left (fun a d -> a +. pair_weight ~lambda c d) acc rest) rest
  in
  nodes +. pairs 0.0 chosen

(* Precomputed instance: candidates are flattened to global indices so the
   search never recomputes geometric costs (branch and bound visits each
   pair many times). *)
type instance = {
  clusters : int array array;   (* per cluster: global candidate indices *)
  cand : Candidate.t array;     (* by global index *)
  node_w : float array;
  pair_w : float array array;   (* 0 within a cluster, symmetric *)
}

(* A candidate's edge boxes, flat as [x0; y0; x1; y1; cells] per edge in
   edge order, and the hull of all of them as [x0; y0; x1; y1] (inverted,
   so disjoint from everything, for a tree without edges). *)
let box_stride = 5

let edge_boxes (c : Candidate.t) =
  let boxes = Array.make (box_stride * List.length c.edges) 0 in
  let hull = [| max_int; max_int; min_int; min_int |] in
  List.iteri
    (fun k (e : Candidate.edge) ->
       let r = Rect.of_points e.parent_pos e.child_pos in
       let o = box_stride * k in
       boxes.(o) <- r.x0;
       boxes.(o + 1) <- r.y0;
       boxes.(o + 2) <- r.x1;
       boxes.(o + 3) <- r.y1;
       boxes.(o + 4) <- Rect.cells r;
       hull.(0) <- Int.min hull.(0) r.x0;
       hull.(1) <- Int.min hull.(1) r.y0;
       hull.(2) <- Int.max hull.(2) r.x1;
       hull.(3) <- Int.max hull.(3) r.y1)
    c.edges;
  (boxes, hull)

(* [overlap_cost] on precomputed boxes, [a]'s edges outer as in the list
   fold. Zero terms are skipped: the sum starts at +0.0 and every term is
   >= 0, so adding +0.0 never changes it and the result is bit-identical. *)
let boxes_overlap a b =
  let s = ref 0.0 in
  for ka = 0 to (Array.length a / box_stride) - 1 do
    let i = ka * box_stride in
    for kb = 0 to (Array.length b / box_stride) - 1 do
      let j = kb * box_stride in
      let x0 = Int.max a.(i) b.(j) and y0 = Int.max a.(i + 1) b.(j + 1) in
      let x1 = Int.min a.(i + 2) b.(j + 2) and y1 = Int.min a.(i + 3) b.(j + 3) in
      if x0 <= x1 && y0 <= y1 then
        s :=
          !s
          +. float_of_int ((x1 - x0 + 1) * (y1 - y0 + 1))
             /. float_of_int (Int.min a.(i + 4) b.(j + 4))
    done
  done;
  !s

let hulls_disjoint a b = a.(2) < b.(0) || b.(2) < a.(0) || a.(3) < b.(1) || b.(3) < a.(1)

let build_instance ~lambda per_cluster =
  let norm = max_mismatch per_cluster in
  let cand = Array.of_list (List.concat per_cluster) in
  let total = Array.length cand in
  let cluster_of = Array.make total 0 in
  let clusters =
    let next = ref 0 in
    Array.of_list
      (List.mapi
         (fun ci cands ->
            Array.of_list
              (List.map
                 (fun _ ->
                    let g = !next in
                    incr next;
                    cluster_of.(g) <- ci;
                    g)
                 cands))
         per_cluster)
  in
  let node_w = Array.map (node_weight ~lambda ~norm) cand in
  let boxes = Array.map edge_boxes cand in
  let pair_w = Array.make_matrix total total 0.0 in
  for i = 0 to total - 1 do
    let bi, hi = boxes.(i) in
    for j = i + 1 to total - 1 do
      if cluster_of.(i) <> cluster_of.(j) then begin
        (* Exactly [pair_weight cand.(i) cand.(j)]. *)
        let bj, hj = boxes.(j) in
        let ov = if hulls_disjoint hi hj then 0.0 else boxes_overlap bi bj in
        let w = -.(1.0 -. lambda) *. ov in
        pair_w.(i).(j) <- w;
        pair_w.(j).(i) <- w
      end
    done
  done;
  { clusters; cand; node_w; pair_w }

(* [selection_weight] of a full selection, read off the instance: the node
   sum, then the pairs in list order, so the result is bit-identical. *)
let objective inst chosen =
  let n = Array.length chosen in
  let nodes = ref 0.0 in
  for i = 0 to n - 1 do
    nodes := !nodes +. inst.node_w.(chosen.(i))
  done;
  let pairs = ref 0.0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      pairs := !pairs +. inst.pair_w.(chosen.(i)).(chosen.(j))
    done
  done;
  !nodes +. !pairs

(* Clusters in input order, each taking the candidate with the best
   marginal weight against the choices already made: the incumbent that
   seeds [exact]. *)
let greedy inst =
  let n = Array.length inst.clusters in
  let chosen = Array.make n (-1) in
  for i = 0 to n - 1 do
    let marginal g =
      let w = ref inst.node_w.(g) in
      for j = 0 to i - 1 do
        w := !w +. inst.pair_w.(g).(chosen.(j))
      done;
      !w
    in
    let best = ref inst.clusters.(i).(0) and best_w = ref (marginal inst.clusters.(i).(0)) in
    Array.iter
      (fun g ->
         let w = marginal g in
         if w > !best_w then begin
           best := g;
           best_w := w
         end)
      inst.clusters.(i);
    chosen.(i) <- !best
  done;
  chosen

let exact ?alive inst =
  let n = Array.length inst.clusters in
  (* Cancellation: [alive] is polled once every [poll_stride] nodes; once
     it reports false every pending branch is cut, leaving the incumbent
     (greedy-seeded, so always a full selection). *)
  let poll_stride = 256 in
  let nodes = ref 0 and stopped = ref false in
  let cut () =
    match alive with
    | None -> false
    | Some alive ->
      incr nodes;
      if !nodes land (poll_stride - 1) = 0 && not (alive ()) then stopped := true;
      !stopped
  in
  (* All weights are <= 0; the best a suffix can add is its max node
     weights, ignoring overlaps — admissible since overlaps only subtract. *)
  let best_suffix =
    Array.map
      (fun cands -> Array.fold_left (fun a g -> max a inst.node_w.(g)) neg_infinity cands)
      inst.clusters
  in
  let suffix_bound = Array.make (n + 1) 0.0 in
  for i = n - 1 downto 0 do
    suffix_bound.(i) <- suffix_bound.(i + 1) +. best_suffix.(i)
  done;
  (* Seed with the greedy solution so the plateau of zero-cost selections
     prunes immediately. *)
  let seed = greedy inst in
  let seed_w =
    let w = ref 0.0 in
    for i = 0 to n - 1 do
      w := !w +. inst.node_w.(seed.(i));
      for j = 0 to i - 1 do
        w := !w +. inst.pair_w.(seed.(i)).(seed.(j))
      done
    done;
    !w
  in
  let best = ref (Array.copy seed) and best_w = ref seed_w in
  (* Forward checking: at depth [i], [marg.(i).(g)] is candidate [g]'s
     weight against the choices so far, [node_w g] plus its pair weights to
     [chosen.(0..i-1)] added in that order — the order the child weight was
     summed in, so reading it from the stack is bit-identical. The best
     marginal of every open cluster bounds the rest of the branch (pairs
     among open clusters only subtract); a branch it cannot lift above the
     incumbent holds no leaf that would replace it, so the incumbent
     history — and the selection — is the plain bound's. *)
  let total = Array.length inst.cand in
  let marg = Array.make_matrix (n + 1) total 0.0 in
  Array.blit inst.node_w 0 marg.(0) 0 total;
  let chosen = Array.make n (-1) in
  (* Fills [marg.(i)] from [marg.(i - 1)] and [chosen.(i - 1)]; returns the
     forward-checking bound on what clusters [i..n-1] can add. *)
  let forward i =
    let prev = marg.(i - 1) and cur = marg.(i) and pw = inst.pair_w.(chosen.(i - 1)) in
    let bound = ref 0.0 in
    for k = i to n - 1 do
      let cl = inst.clusters.(k) in
      let m = ref neg_infinity in
      for t = 0 to Array.length cl - 1 do
        let g = cl.(t) in
        let v = prev.(g) +. pw.(g) in
        cur.(g) <- v;
        if v > !m then m := v
      done;
      bound := !bound +. !m
    done;
    !bound
  in
  let rec go i acc_w =
    if i = n then begin
      if acc_w > !best_w then begin
        best_w := acc_w;
        best := Array.copy chosen
      end
    end
    else if
      acc_w +. suffix_bound.(i) > !best_w +. 1e-12
      && (i = 0 || acc_w +. forward i > !best_w -. 1e-9)
      && not (cut ())
    then begin
      let mi = marg.(i) and cl = inst.clusters.(i) in
      for t = 0 to Array.length cl - 1 do
        let g = cl.(t) in
        chosen.(i) <- g;
        go (i + 1) (acc_w +. mi.(g))
      done
    end
  in
  go 0 0.0;
  !best

let select ?alive ?(config = default_config) per_cluster =
  if List.exists (fun cands -> cands = []) per_cluster then
    Error "a cluster has no candidate trees"
  else if per_cluster = [] then Ok { chosen = []; objective = 0.0 }
  else begin
    let inst = build_instance ~lambda:config.lambda per_cluster in
    let chosen_idx = match config.solver with Exact -> exact ?alive inst in
    let chosen = Array.to_list (Array.map (fun g -> inst.cand.(g)) chosen_idx) in
    Ok { chosen; objective = objective inst chosen_idx }
  end
