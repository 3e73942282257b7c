(* The escape network's min-cost-flow solver over an explicit CSR
   (compressed sparse row) adjacency: the differential oracle for
   [Pacor_flow.Mcmf_grid], which runs the same rounds over rows it
   enumerates from the cell-role layer instead.

   The adjacency is built by running the caller's [emit_arcs] twice (a
   count pass, then a fill pass): [off.(v) .. off.(v+1) - 1] are v's arcs,
   each forward arc listed at its tail and its reverse at its head, in
   emission order. Arc state packs into bytes: residual capacity is one
   byte and cost is stored as [cost + 1] (reverse arcs carry [-cost]).
   [reset] restores the initial capacities for another solve on the same
   structure.

   The rounds, the seed, the lazy potentials, the stop threshold and the
   decomposition tie-break (lowest-index forward arc still carrying flow)
   are [Mcmf_grid]'s, line for line, so over a CSR of
   [Escape_oracle.emit_network] both solvers settle the same nodes in the same
   order and return the same paths. Any arc list works here, which is
   what the hand-made-graph tests use. *)

module W = Pacor_route.Workspace
module Stats = Pacor_route.Search_stats

type t = {
  n : int;
  source : int;
  sink : int;
  m : int;                  (* total directed arcs, forward + reverse *)
  off : int array;          (* CSR row offsets, length n + 1 *)
  arc_dst : int array;
  twin : int array;         (* paired residual arc *)
  costb : Bytes.t;          (* arc cost + 1, so reverse costs fit a byte *)
  fwdb : Bytes.t;           (* 1 iff forward arc (initial residual cap 1) *)
  capb : Bytes.t;           (* current residual capacity, 0 or 1 *)
  pot : int array;          (* Johnson potentials, persistent across rounds *)
  dead : Bytes.t;           (* 1 iff [seed] found the sink unreachable *)
  mutable pot_zero : bool;  (* all potentials still zero => 0-1-BFS applies *)
  mutable flow : int;
  mutable cost : int;
  mutable rounds : int;     (* augmentation searches run (incl. the last,
                               empty one) *)
  mutable solved : bool;
}

type outcome = { flow : int; cost : int; rounds : int }

let build ~n ~source ~sink ~emit_arcs =
  if n <= 0 then invalid_arg "Mcmf_csr.build: need at least one node";
  if source < 0 || source >= n || sink < 0 || sink >= n || source = sink then
    invalid_arg "Mcmf_csr.build: bad source/sink";
  (* Pass 1: arc counts per node (each forward arc also has a reverse). *)
  let deg = Array.make n 0 in
  let fwd_count = ref 0 in
  emit_arcs (fun ~src ~dst ~cost ->
    if src < 0 || src >= n || dst < 0 || dst >= n then
      invalid_arg "Mcmf_csr.build: bad node";
    if cost < 0 || cost > 1 then
      invalid_arg "Mcmf_csr.build: cost must be 0 or 1";
    incr fwd_count;
    deg.(src) <- deg.(src) + 1;
    deg.(dst) <- deg.(dst) + 1);
  let m = 2 * !fwd_count in
  let off = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    off.(v + 1) <- off.(v) + deg.(v)
  done;
  (* Pass 2: fill. [deg] becomes the per-node write cursor. The fill
     writes every one of the [m] arc slots, or raises. *)
  let cursor = deg in
  Array.blit off 0 cursor 0 n;
  let cap = max 1 m in
  let arc_dst = Array.make cap 0 in
  let twin = Array.make cap 0 in
  let costb = Bytes.create cap in
  let fwdb = Bytes.make cap '\000' in
  let nondet () = invalid_arg "Mcmf_csr.build: emit_arcs is not deterministic" in
  emit_arcs (fun ~src ~dst ~cost ->
    if src < 0 || src >= n || dst < 0 || dst >= n || cost < 0 || cost > 1 then nondet ();
    let a = cursor.(src) in
    if a >= off.(src + 1) then nondet ();
    cursor.(src) <- a + 1;
    let b = cursor.(dst) in
    if b >= off.(dst + 1) then nondet ();
    cursor.(dst) <- b + 1;
    arc_dst.(a) <- dst;
    twin.(a) <- b;
    Bytes.unsafe_set costb a (Char.unsafe_chr (cost + 1));
    Bytes.unsafe_set fwdb a '\001';
    arc_dst.(b) <- src;
    twin.(b) <- a;
    Bytes.unsafe_set costb b (Char.unsafe_chr (1 - cost)));
  for v = 0 to n - 1 do
    if cursor.(v) <> off.(v + 1) then nondet ()
  done;
  let capb = Bytes.create cap in
  Bytes.blit fwdb 0 capb 0 m;
  let pot = Array.make n 0 in
  let dead = Bytes.make n '\000' in
  { n; source; sink; m; off; arc_dst; twin; costb; fwdb; capb; pot; dead;
    pot_zero = true; flow = 0; cost = 0; rounds = 0; solved = false }

let node_count t = t.n
let arc_count t = t.m

let reset t =
  Bytes.blit t.fwdb 0 t.capb 0 t.m;
  Array.fill t.pot 0 t.n 0;
  Bytes.fill t.dead 0 t.n '\000';
  t.pot_zero <- true;
  t.flow <- 0;
  t.cost <- 0;
  t.rounds <- 0;
  t.solved <- false

let[@inline] has_cap t a = Bytes.unsafe_get t.capb a = '\001'
let[@inline] arc_cost t a = Char.code (Bytes.unsafe_get t.costb a) - 1
let[@inline] is_dead t v = Bytes.unsafe_get t.dead v = '\001'

(* One 0-1-BFS round over raw costs (valid only while every potential is
   zero, when reduced cost = cost). Returns the sink's distance, or -1
   when unreachable / budget exhausted. *)
let round_01 t ws =
  let stats = W.stats ws and dq = Deque.create ws in
  W.set_dist ws t.source 0;
  Deque.push_back dq t.source;
  let dsink = ref (-1) in
  let running = ref true in
  while !running do
    let u = Deque.pop_front dq in
    if u < 0 then running := false
    else if not (W.closed ws u) then begin
      W.close ws u;
      W.trail_push ws u;
      if u = t.sink then begin
        dsink := W.dist ws u;
        running := false
      end
      else begin
        let du = W.dist ws u in
        let stop = t.off.(u + 1) in
        for a = t.off.(u) to stop - 1 do
          if has_cap t a then begin
            Stats.touched stats;
            let v = t.arc_dst.(a) in
            let c = arc_cost t a in
            let nd = du + c in
            if nd < W.dist ws v then begin
              Stats.relaxed stats;
              W.set_dist ws v nd;
              W.set_parent ws v a;
              if c = 0 then Deque.push_front dq v else Deque.push_back dq v
            end
          end
        done
      end
    end
  done;
  !dsink

(* One Dijkstra round over reduced costs, early exit at the sink. Dead
   nodes are skipped: they cannot lie on an augmenting path. *)
let round_dijkstra t ws =
  let stats = W.stats ws in
  W.set_dist ws t.source 0;
  W.push ws ~prio:0 t.source;
  let dsink = ref (-1) in
  let running = ref true in
  while !running do
    let u = W.pop_cell ws in
    if u < 0 then running := false
    else if not (W.closed ws u) then begin
      W.close ws u;
      W.trail_push ws u;
      if u = t.sink then begin
        dsink := W.dist ws u;
        running := false
      end
      else begin
        let du = W.dist ws u in
        let pu = t.pot.(u) in
        let stop = t.off.(u + 1) in
        for a = t.off.(u) to stop - 1 do
          if has_cap t a then begin
            let v = t.arc_dst.(a) in
            if not (is_dead t v) then begin
              Stats.touched stats;
              let nd = du + arc_cost t a + pu - t.pot.(v) in
              if nd < W.dist ws v then begin
                Stats.relaxed stats;
                W.set_dist ws v nd;
                W.set_parent ws v a;
                W.push ws ~prio:nd v
              end
            end
          end
        done
      end
    end
  done;
  !dsink

(* Flip the unit of flow along the parent-arc chain sink -> source. *)
let augment t ws =
  let v = ref t.sink in
  while !v <> t.source do
    let a = W.parent ws !v in
    Bytes.unsafe_set t.capb a '\000';
    let b = t.twin.(a) in
    Bytes.unsafe_set t.capb b '\001';
    v := t.arc_dst.(b)
  done;
  t.flow <- t.flow + 1

(* Install the caller's exact sink distances: [pot(v) = -h(v)] on every
   node with [h(v) >= 0], and a dead mark on the rest (their potential
   stays 0). *)
let seed t ~h =
  if t.solved then invalid_arg "Mcmf_csr.seed: already solved";
  for v = 0 to t.n - 1 do
    let hv = h v in
    if hv >= 0 then t.pot.(v) <- - hv else Bytes.unsafe_set t.dead v '\001'
  done;
  t.pot_zero <- false

(* After an early-exit round with sink distance [d]: settled nodes hold
   their exact distance [dist(v) <= d], and every other node's is >= d.
   [pot(v) += dist(v) - d] on the settled trail alone is the textbook
   [pot(v) += min(dist(v), d)] shifted by the constant [-d], so all
   residual reduced costs stay non-negative for the next round. *)
let update_potentials t ws d =
  if d > 0 then begin
    for k = 0 to W.trail_length ws - 1 do
      let v = W.trail_get ws k in
      t.pot.(v) <- t.pot.(v) + W.dist ws v - d
    done;
    t.pot_zero <- false
  end

let outcome (t : t) : outcome = { flow = t.flow; cost = t.cost; rounds = t.rounds }

let solve ?(alive = fun () -> true) ?workspace ?stop_when_cost_reaches t =
  if t.solved then invalid_arg "Mcmf_csr.solve: already solved";
  t.solved <- true;
  let ws = match workspace with Some ws -> ws | None -> W.create () in
  let running = ref true in
  while !running && alive () do
    W.begin_flow ws ~nodes:t.n;
    t.rounds <- t.rounds + 1;
    let d = if t.pot_zero then round_01 t ws else round_dijkstra t ws in
    if d < 0 then running := false
    else begin
      (* [d] is a reduced distance; potentials float (seeded, and shifted
         by the lazy update), so undo both ends to get the true cost. *)
      let path_cost = d + t.pot.(t.sink) - t.pot.(t.source) in
      let over =
        match stop_when_cost_reaches with
        | Some threshold -> path_cost >= threshold
        | None -> false
      in
      if over then running := false
      else begin
        augment t ws;
        t.cost <- t.cost + path_cost;
        update_potentials t ws d
      end
    end
  done;
  outcome t

let row t v =
  List.init (t.off.(v + 1) - t.off.(v)) (fun k ->
    let a = t.off.(v) + k in
    (t.arc_dst.(a), arc_cost t a, Char.code (Bytes.get t.capb a)))

(* Lowest-index forward arc out of [v] still carrying flow (forward arc
   with spent capacity), or -1. The "lowest CSR index" rule is the
   deterministic tie-break when several unit paths cross one node. *)
let flow_arc_from t v =
  let stop = t.off.(v + 1) in
  let found = ref (-1) in
  let a = ref t.off.(v) in
  while !found < 0 && !a < stop do
    if Bytes.unsafe_get t.fwdb !a = '\001' && Bytes.unsafe_get t.capb !a = '\000'
    then found := !a
    else incr a
  done;
  !found

let decompose_paths t =
  let paths = ref [] in
  let rec next_unit () =
    if flow_arc_from t t.source >= 0 then begin
      (* Walk one unit sink-ward, consuming its flow; iterative loop with
         an accumulator, so Chip1-length paths cannot overflow the stack. *)
      let acc = ref [] in
      let v = ref t.source in
      while !v <> t.sink do
        acc := !v :: !acc;
        let a = flow_arc_from t !v in
        if a < 0 then failwith "Mcmf_csr.decompose_paths: flow dead-ends";
        Bytes.unsafe_set t.capb a '\001';
        Bytes.unsafe_set t.capb t.twin.(a) '\000';
        v := t.arc_dst.(a)
      done;
      paths := List.rev (t.sink :: !acc) :: !paths;
      next_unit ()
    end
  in
  next_unit ();
  List.rev !paths
