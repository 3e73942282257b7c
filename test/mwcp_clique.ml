(* The paper's literal formulation of candidate selection (Sec. 4.2), the
   optimality oracle for [Tree_select.select]: one graph node per
   candidate, edges between candidates of different clusters, maximum
   weight clique ([Clique]). A large uniform node bonus M makes bigger
   cliques always dominate, so the optimum covers every cluster (the graph
   is complete multipartite); the remaining weight is exactly the
   selection objective. Weights come from the public cost functions:
   node weight -lambda * [mismatch_cost] (Eq. 2), pair weight
   -(1 - lambda) * [overlap_cost] (Eq. 3). Returns one candidate per
   cluster, in cluster order. *)

open Pacor_select

let select ~lambda per_cluster =
  let cand = Array.of_list (List.concat per_cluster) in
  let cluster_of =
    Array.of_list (List.concat (List.mapi (fun ci cands -> List.map (fun _ -> ci) cands) per_cluster))
  in
  let total = Array.length cand in
  let node_w =
    Array.map (fun c -> -.lambda *. Tree_select.mismatch_cost per_cluster c) cand
  in
  let pair_w =
    Array.init total (fun i ->
      Array.init total (fun j ->
        if cluster_of.(i) = cluster_of.(j) then 0.0
        else -.(1.0 -. lambda) *. Tree_select.overlap_cost cand.(i) cand.(j)))
  in
  let graph =
    { Clique.n = total; adjacent = (fun i j -> i <> j && cluster_of.(i) <> cluster_of.(j)) }
  in
  (* M dominates any achievable |objective|: one more node gains M and
     costs at most the sum of every weight's magnitude. (A pair cost sums
     over all edge pairs of the two trees, so it is not bounded by 1.) *)
  let big =
    let s = ref 1.0 in
    Array.iter (fun w -> s := !s +. Float.abs w) node_w;
    Array.iter (Array.iter (fun w -> s := !s +. Float.abs w)) pair_w;
    !s
  in
  let weighted =
    { Clique.graph;
      node_weight = (fun i -> big +. node_w.(i));
      edge_weight = (fun i j -> pair_w.(i).(j)) }
  in
  let clique, _w = Clique.max_weight_clique weighted in
  let by_cluster = Array.make (List.length per_cluster) (-1) in
  List.iter (fun g -> by_cluster.(cluster_of.(g)) <- g) clique;
  Array.to_list (Array.map (fun g -> cand.(g)) by_cluster)
