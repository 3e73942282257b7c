open Pacor_geom
open Pacor_dme

type solver = Exact | Greedy | Local_search | Mwcp_clique

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
  else float_of_int ov /. float_of_int (min (Rect.cells ba) (Rect.cells bb))

let overlap_cost ca cb =
  let ea = Candidate.edge_ends ca and eb = Candidate.edge_ends cb in
  List.fold_left
    (fun acc e1 -> List.fold_left (fun a e2 -> a +. edge_overlap e1 e2) acc eb)
    0.0 ea

let max_mismatch per_cluster =
  List.fold_left
    (fun acc cands ->
       List.fold_left (fun a (c : Candidate.t) -> max a c.mismatch) acc cands)
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
   solvers never recompute geometric costs (the overlap evaluation is the
   expensive part; branch and bound visits each pair many times). *)
type instance = {
  clusters : int array array;   (* per cluster: global candidate indices *)
  cand : Candidate.t array;     (* by global index *)
  cluster_of : int array;
  node_w : float array;
  pair_w : float array array;   (* 0 within a cluster, symmetric *)
}

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
  let pair_w = Array.make_matrix total total 0.0 in
  for i = 0 to total - 1 do
    for j = i + 1 to total - 1 do
      if cluster_of.(i) <> cluster_of.(j) then begin
        let w = pair_weight ~lambda cand.(i) cand.(j) in
        pair_w.(i).(j) <- w;
        pair_w.(j).(i) <- w
      end
    done
  done;
  { clusters; cand; cluster_of; node_w; pair_w }

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

let local_search inst start =
  let n = Array.length inst.clusters in
  let chosen = Array.copy start in
  let weight_with i g =
    let w = ref inst.node_w.(g) in
    for j = 0 to n - 1 do
      if j <> i then w := !w +. inst.pair_w.(g).(chosen.(j))
    done;
    !w
  in
  let improved = ref true in
  let rounds = ref 0 in
  while !improved && !rounds < 100 do
    improved := false;
    incr rounds;
    for i = 0 to n - 1 do
      let current = weight_with i chosen.(i) in
      Array.iter
        (fun g ->
           if weight_with i g > current +. 1e-12 then begin
             chosen.(i) <- g;
             improved := true
           end)
        inst.clusters.(i)
    done
  done;
  chosen

let exact ?sched ?alive inst =
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
  (* One top-level branch per candidate of cluster 0, explored depth-first
     against [best]/[best_w]. [leaf_max], when given, observes the value of
     every leaf reached (used by the parallel merge's skip bound); it never
     influences the search. *)
  let explore ~chosen ~best ~best_w ~leaf_max g0 =
    let rec go i acc_w =
      if i = n then begin
        (match leaf_max with
         | Some r -> if acc_w > !r then r := acc_w
         | None -> ());
        if acc_w > !best_w then begin
          best_w := acc_w;
          best := Array.copy chosen
        end
      end
      else if acc_w +. suffix_bound.(i) > !best_w +. 1e-12 && not (cut ()) then
        Array.iter
          (fun g ->
             let w = ref inst.node_w.(g) in
             for j = 0 to i - 1 do
               w := !w +. inst.pair_w.(g).(chosen.(j))
             done;
             chosen.(i) <- g;
             go (i + 1) (acc_w +. !w))
          inst.clusters.(i)
    in
    chosen.(0) <- g0;
    go 1 inst.node_w.(g0)
  in
  if n > 0 && 0.0 +. suffix_bound.(0) > !best_w +. 1e-12 then begin
    let branches = inst.clusters.(0) in
    let nb = Array.length branches in
    let run_seq () =
      let chosen = Array.make n (-1) in
      Array.iter (fun g -> explore ~chosen ~best ~best_w ~leaf_max:None g) branches
    in
    match sched with
    | None -> run_seq ()
    | Some _ when nb < 2 || alive <> None -> run_seq ()
    | Some sched ->
      (* Speculative parallel branches: each runs against a private copy of
         the seed incumbent, then an ordered merge reconstructs exactly the
         sequential result. Branch k's speculative run is {e the} sequential
         run whenever the incumbent is still the seed when the merge reaches
         it, so its outcome is adopted verbatim. Once some earlier branch
         improved the incumbent, branch k's speculation used a weaker prune
         bound than sequential would have — but every leaf it could not see
         is bounded by [max seed_w leaf_max +. 1e-12], so when even that
         cannot beat the live incumbent the branch provably contributes
         nothing and is skipped; otherwise it re-runs sequentially against
         the live incumbent. Adopt, skip and re-run all reproduce the
         sequential incumbent bit-for-bit, in branch order. *)
      let results = Array.make nb None in
      Pacor_sched.Sched.parallel_for sched ~n:nb (fun k ->
        let chosen = Array.make n (-1) in
        let lb = ref (Array.copy seed) in
        let lw = ref seed_w in
        let lmax = ref neg_infinity in
        explore ~chosen ~best:lb ~best_w:lw ~leaf_max:(Some lmax) branches.(k);
        results.(k) <- Some (!lb, !lw, !lmax));
      let chosen = Array.make n (-1) in
      Array.iteri
        (fun k r ->
           let lb, lw, lmax = Option.get r in
           if !best_w = seed_w then begin
             if lw > seed_w then begin
               best_w := lw;
               best := lb
             end
           end
           else if lmax +. 1e-12 <= !best_w && seed_w +. 1e-12 <= !best_w then
             ()
           else explore ~chosen ~best ~best_w ~leaf_max:None branches.(k))
        results
  end;
  !best

(* The paper's literal formulation: one graph node per candidate, edges
   between candidates of different clusters, maximum weight clique. A large
   uniform node bonus M makes bigger cliques always dominate, so the
   optimum covers every cluster (the graph is complete multipartite); the
   remaining weight is exactly the selection objective. *)
let mwcp_clique inst =
  let total = Array.length inst.cand in
  let graph =
    { Pacor_graphs.Clique.n = total;
      adjacent = (fun i j -> i <> j && inst.cluster_of.(i) <> inst.cluster_of.(j)) }
  in
  (* M dominates any achievable |objective|: costs are sums of at most
     total^2 terms each bounded by 1 in absolute value. *)
  let big = float_of_int ((total * total) + 1) in
  let weighted =
    { Pacor_graphs.Clique.graph;
      node_weight = (fun i -> big +. inst.node_w.(i));
      edge_weight = (fun i j -> inst.pair_w.(i).(j)) }
  in
  let clique, _w = Pacor_graphs.Clique.max_weight_clique weighted in
  (* One node per cluster, in cluster order. *)
  let by_cluster = Array.make (Array.length inst.clusters) (-1) in
  List.iter (fun g -> by_cluster.(inst.cluster_of.(g)) <- g) clique;
  by_cluster

let select ?sched ?alive ?(config = default_config) per_cluster =
  if List.exists (fun cands -> cands = []) per_cluster then
    Error "a cluster has no candidate trees"
  else if per_cluster = [] then Ok { chosen = []; objective = 0.0 }
  else begin
    let inst = build_instance ~lambda:config.lambda per_cluster in
    let chosen_idx =
      match config.solver with
      | Greedy -> greedy inst
      | Local_search -> local_search inst (greedy inst)
      | Exact -> exact ?sched ?alive inst
      | Mwcp_clique -> mwcp_clique inst
    in
    let chosen = Array.to_list (Array.map (fun g -> inst.cand.(g)) chosen_idx) in
    Ok { chosen; objective = selection_weight ~lambda:config.lambda per_cluster chosen }
  end
