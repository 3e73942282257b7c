(* Unit-capacity min-cost max-flow over the escape network, read straight
   off the cell-role layer.

   The network is the escape stage's node-split grid (cell i is nodes
   in(i) = 2i and out(i) = 2i + 1, request k is 2 * cells + k, then the
   source and the sink), and every arc of it follows from one cell's role
   and its neighbours' roles plus the request list. So nothing is stored
   but flow: [iter_row] enumerates a node's residual row in exactly the
   order a CSR built from the arc emission order holds it (the .mli
   lists both),
   each arc at a fixed row position, its port: in(i) 0-4 (reverse from
   -w, reverse from -1, own arc, reverse from +1, reverse from +w); out(i)
   0 for the reverse of in -> out, 1 + d for direction d (+1, -1, +w, -w),
   5 + j for the j-th request arc in [by_cell]; request k 0 for the
   reverse of source -> k, 1 + a for request arc a; the source k. Ports
   increase along a row, so a parent stored as [port * n + predecessor]
   names the residual arc exactly (a request may list one start cell
   twice, so the predecessor alone would not), with no fixed bit width.

   Flow is one byte per cell — bit d (0-3) on out(i) -> in(nbr_d), bit 4
   on in(i)'s own arc — plus [rflow] per request arc and [sflow] per
   request. Capacities are all 1, so a forward arc's residual capacity is
   1 - flow and its reverse arc's is the flow, and pushing a unit along
   either flips one bit ([flip]).

   Rounds. Successive shortest paths need only the distance to the sink,
   so each round is a search over reduced costs that stops the moment the
   sink settles and carries Johnson potentials to the next round; all
   per-round state (the heap, the settle trail, and the node record
   holding each node's stamp, dist, parent and potential) lives in a
   generation-stamped Pacor_route.Workspace. The escape stage seeds every
   solve: [seed] stores the caller's exact sink distances [h], and
   [pot(v) = -h(v)] is a feasible potential, so Dijkstra on the reduced
   costs is an A* search toward the sink
   (Goldberg & Harrelson); nodes without an [h] are dead and never
   relaxed, since residual arcs out of a sink-unreachable set only lead
   back into it and augmentation adds arcs between sink-reachable nodes
   only. Potentials are installed on first touch: a node's state byte
   reads unseen until a round relaxes it, the path-cost readout reads it
   or the potential update reaches it, and only then is [h] evaluated
   (once) and [pot(v)] written, so a solve pays for the nodes its rounds
   reach, not for the grid. Only the install and the update write a
   potential, and the update installs first, so every potential read
   equals an eager install's. Unseeded, every potential is 0 and every
   round a plain Dijkstra. After a round with sink
   distance [d], the textbook update
   [pot(v) += min(dist(v), d)] is applied as [pot(v) += dist(v) - d] to
   the settled nodes only: the same reduced costs, heap order and paths
   in O(settled), and a path's true cost is [d + pot(sink) -
   pot(source)].

   Determinism: rows keep the emission order, heap ties break on
   Pqueue's fixed order, and [paths] follows the first forward arc in
   row order still carrying flow, so the paths are those of the same
   rounds over an explicit CSR of the emitted arcs (test/mcmf_csr.ml,
   kept as the differential oracle). *)

open Pacor_grid
module W = Pacor_route.Workspace
module A = Bigarray.Array1
module Stats = Pacor_route.Search_stats

let role_excluded = 0
let role_ordinary = 1
let role_pin = 2
let role_start = 3

(* Node states: not yet installed, installed without an [h], installed
   with [pot = -h]. *)
let unseen = '\000'
let dead = '\001'
let live = '\002'

type t = {
  roles : Packed_roles.t;
  width : int;
  cells : int;
  nreq : int;
  n : int;
  source : int;
  sink : int;
  req_first : int array;    (* request k's arcs are [req_first.(k), req_first.(k+1)) *)
  arc_cell : int array;     (* start cell of each request arc *)
  arc_req : int array;      (* request of each request arc *)
  by_cell : int array;      (* request arcs sorted by (start cell, arc) *)
  fl : Bytes.t;             (* per-cell flow bits, see the header *)
  rflow : Bytes.t;          (* flow on each request -> out(start) arc *)
  sflow : Bytes.t;          (* flow on each source -> request arc *)
  mutable nodes : W.ints;    (* the solving workspace's node record: dist,
                               parent and stamps per round, and the
                               Johnson potentials, read only once the node
                               is installed, persistent across rounds *)
  state : Bytes.t;          (* per node: [unseen], [dead] or [live] *)
  mutable h : int -> int;   (* sink distances the install reads *)
  mutable flow : int;
  mutable cost : int;
  mutable rounds : int;     (* augmentation searches run (incl. the last,
                               empty one) *)
  mutable solved : bool;
  (* What [visit] does with each arc [iter_row] enumerates: collect it
     into [acc] ([row]), or relax it in a round from node [cur] at [du]
     (plus [cur]'s potential) in the epoch whose touched stamp is [e2]. *)
  mutable collect : bool;
  mutable cur : int;
  mutable du : int;
  mutable e2 : int;
  mutable acc : (int * int * int) list;
}

type outcome = { flow : int; cost : int; rounds : int }

let create ?workspace ~grid ~roles starts =
  let cells = Routing_grid.cells grid in
  if Packed_roles.length roles < cells then
    invalid_arg "Mcmf_grid.create: role layer smaller than the grid";
  let nreq = Array.length starts in
  let n = (2 * cells) + nreq + 2 in
  let req_first = Array.make (nreq + 1) 0 in
  Array.iteri (fun k s -> req_first.(k + 1) <- req_first.(k) + Array.length s) starts;
  let m = req_first.(nreq) in
  let arc_cell = Array.make m 0 and arc_req = Array.make m 0 in
  Array.iteri
    (fun k s ->
       Array.iteri
         (fun pos i ->
            if i < 0 || i >= cells then
              invalid_arg "Mcmf_grid.create: start cell off the grid";
            (* Only start and pin cells look up the request arcs into
               their out node; any other start cell would lose them. *)
            let r = Packed_roles.get roles i in
            if r <> role_start && r <> role_pin then
              invalid_arg "Mcmf_grid.create: start cell is neither a start nor a pin";
            arc_cell.(req_first.(k) + pos) <- i;
            arc_req.(req_first.(k) + pos) <- k)
         s)
    starts;
  let by_cell = Array.init m (fun a -> a) in
  Array.stable_sort (fun a b -> Int.compare arc_cell.(a) arc_cell.(b)) by_cell;
  let bytes slot len =
    match workspace with
    | Some ws -> W.scratch_bytes ws ~slot ~len
    | None -> Bytes.create len
  in
  (* Leased contents are arbitrary: fill what is read later. A node's
     potential is written by its install before anything reads it. *)
  let fl = bytes 1 cells in
  Bytes.fill fl 0 cells '\000';
  let state = bytes 2 n in
  Bytes.fill state 0 n unseen;
  { roles; width = Routing_grid.width grid; cells; nreq; n;
    source = (2 * cells) + nreq; sink = (2 * cells) + nreq + 1;
    req_first; arc_cell; arc_req; by_cell; fl;
    rflow = Bytes.make m '\000'; sflow = Bytes.make nreq '\000';
    nodes = W.zeroed 0; state; h = (fun _ -> 0);
    flow = 0; cost = 0; rounds = 0; solved = false;
    collect = false; cur = 0; du = 0; e2 = 0; acc = [] }

let[@inline] role t i = Packed_roles.get t.roles i
let[@inline] transit r = r = role_ordinary || r = role_start
let[@inline] enterable r = r = role_ordinary || r = role_pin
let[@inline] bit t i d = (Char.code (Bytes.unsafe_get t.fl i) lsr d) land 1

let[@inline] byte b a = Char.code (Bytes.unsafe_get b a)
let[@inline] flip_byte b a = Bytes.unsafe_set b a (Char.unsafe_chr (byte b a lxor 1))
let[@inline] flip_bit t i d =
  Bytes.unsafe_set t.fl i (Char.unsafe_chr (byte t.fl i lxor (1 lsl d)))

(* First touch of node [v]: evaluate [h] once and install [pot(v) = -h(v)]
   and live, or potential 0 and dead. True iff live. *)
let install t v =
  let hv = t.h v in
  if hv >= 0 then begin
    t.nodes.{(4 * v) + 3} <- - hv;
    Bytes.unsafe_set t.state v live;
    true
  end
  else begin
    t.nodes.{(4 * v) + 3} <- 0;
    Bytes.unsafe_set t.state v dead;
    false
  end

(* The relax test: one byte compare for an installed live node. *)
let[@inline] is_live t v =
  let s = Bytes.unsafe_get t.state v in
  s = live || (s = unseen && install t v)

(* Node [v]'s potential, installing it first if unseen. *)
let[@inline] pot t v =
  if Bytes.unsafe_get t.state v = unseen then ignore (install t v : bool);
  t.nodes.{(4 * v) + 3}

(* Neighbour of cell [i] in direction [d] (+1, -1, +w, -w), or -1 off the
   grid: the [Routing_grid.iter_neighbours4] order. An [interior] cell
   has all four, so it skips the bounds test: every ordinary cell is
   interior ([Escape.compute_roles] excludes the ring). *)
let[@inline] nbr t ~interior i d =
  let w = t.width in
  match d with
  | 0 -> if interior || (i mod w) + 1 < w then i + 1 else -1
  | 1 -> if interior || i mod w > 0 then i - 1 else -1
  | 2 -> if interior || i + w < t.cells then i + w else -1
  | _ -> if interior || i >= w then i - w else -1

(* First [by_cell] index whose arc starts at cell [i] or later. *)
let lower_bound t i =
  let lo = ref 0 and hi = ref (Array.length t.by_cell) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if t.arc_cell.(t.by_cell.(mid)) < i then lo := mid + 1 else hi := mid
  done;
  !lo

(* One arc of a row: [port] into [v] at cost [c], residual capacity
   [cap] (0 or 1), collected or relaxed as [t.collect] says. A round
   reads and writes the workspace's node record directly (four ints per
   node at [4 * v]: stamp, dist, parent, potential; touched this epoch
   once the stamp reaches [e2] = [2 * epoch], closed at [e2 + 1]). The
   scan is a flag, not a closure argument, because without flambda the
   native compiler calls an inlined function's closure argument through
   [caml_applyN]; this way every arc's work is inlined into the one
   enumerator that both the rounds and [row] share. *)
let[@inline] visit t ws port v c cap =
  if t.collect then t.acc <- (v, c, cap) :: t.acc
  else if cap = 1 && is_live t v then begin
    let stats = W.stats ws and nodes = t.nodes and b = 4 * v in
    Stats.touched stats;
    let nd = t.du + c - A.unsafe_get nodes (b + 3) in
    let fresh = A.unsafe_get nodes b < t.e2 in
    if fresh || nd < A.unsafe_get nodes (b + 1) then begin
      Stats.relaxed stats;
      if fresh then A.unsafe_set nodes b t.e2;
      A.unsafe_set nodes (b + 1) nd;
      A.unsafe_set nodes (b + 2) ((port * t.n) + t.cur);
      W.push ws ~prio:nd v
    end
  end

(* [visit] every arc of node [u]'s row, in row order. *)
let iter_row t ws u =
  let base = 2 * t.cells in
  if u < base then begin
    let i = u lsr 1 in
    let r = role t i in
    let interior = r = role_ordinary in
    if u land 1 = 0 then begin
      if enterable r then begin
        (* Reverse arcs out(j) -> in(i) from transit neighbours j; their
           flow is j's bit for the direction back towards i. *)
        let j = nbr t ~interior i 3 in
        if j >= 0 && transit (role t j) then visit t ws 0 ((2 * j) + 1) (-1) (bit t j 2);
        let j = nbr t ~interior i 1 in
        if j >= 0 && transit (role t j) then visit t ws 1 ((2 * j) + 1) (-1) (bit t j 0);
        visit t ws 2 (if r = role_pin then t.sink else u + 1) 0 (1 - bit t i 4);
        let j = nbr t ~interior i 0 in
        if j >= 0 && transit (role t j) then visit t ws 3 ((2 * j) + 1) (-1) (bit t j 1);
        let j = nbr t ~interior i 2 in
        if j >= 0 && transit (role t j) then visit t ws 4 ((2 * j) + 1) (-1) (bit t j 3)
      end
    end
    else begin
      if interior then visit t ws 0 (u - 1) 0 (bit t i 4);
      if transit r then
        for d = 0 to 3 do
          let j = nbr t ~interior i d in
          if j >= 0 && enterable (role t j) then visit t ws (1 + d) (2 * j) 1 (1 - bit t i d)
        done;
      if r = role_start || r = role_pin then begin
        let j = ref (lower_bound t i) in
        let m = Array.length t.by_cell in
        while !j < m && t.arc_cell.(t.by_cell.(!j)) = i do
          let a = t.by_cell.(!j) in
          visit t ws (5 + !j) (base + t.arc_req.(a)) 0 (byte t.rflow a);
          incr j
        done
      end
    end
  end
  else if u < base + t.nreq then begin
    let k = u - base in
    visit t ws 0 t.source 0 (byte t.sflow k);
    for a = t.req_first.(k) to t.req_first.(k + 1) - 1 do
      visit t ws (1 + a) ((2 * t.arc_cell.(a)) + 1) 0 (1 - byte t.rflow a)
    done
  end
  else if u = t.source then
    for k = 0 to t.nreq - 1 do
      visit t ws k (base + k) 0 (1 - byte t.sflow k)
    done
  else
    for i = 0 to t.cells - 1 do
      if role t i = role_pin then visit t ws i (2 * i) 0 (bit t i 4)
    done

let row t u =
  t.collect <- true;
  t.acc <- [];
  iter_row t (W.create ()) u;
  t.collect <- false;
  List.rev t.acc

(* Flip the flow bit behind the arc at [port] of [u]'s row: the arc's own
   bit if it is a forward arc, its forward twin's if it is a reverse arc.
   On an arc with residual capacity that pushes one unit along it; on a
   forward arc carrying flow it takes the unit back off. *)
let flip t u port =
  let base = 2 * t.cells in
  if u < base then begin
    let i = u lsr 1 in
    if u land 1 = 0 then
      match port with
      | 0 -> flip_bit t (i - t.width) 2
      | 1 -> flip_bit t (i - 1) 0
      | 2 -> flip_bit t i 4
      | 3 -> flip_bit t (i + 1) 1
      | _ -> flip_bit t (i + t.width) 3
    else if port = 0 then flip_bit t i 4
    else if port <= 4 then flip_bit t i (port - 1)
    else flip_byte t.rflow t.by_cell.(port - 5)
  end
  else if u < base + t.nreq then begin
    if port = 0 then flip_byte t.sflow (u - base) else flip_byte t.rflow (port - 1)
  end
  else flip_byte t.sflow port

(* One Dijkstra round over reduced costs, early exit at the sink:
   [W.pop_cell], closing each node once (the record's [close]), adding it
   to the settle trail and scanning its row, until the sink settles. Dead
   nodes are skipped: they cannot lie on an augmenting path. Every node
   pushed is installed first (the source here, the rest by [is_live]), so
   a popped node's potential reads directly. Returns the sink's distance,
   or -1 when it is unreachable / the budget is exhausted. *)
let round t ws =
  ignore (pot t t.source : int);
  W.set_dist ws t.source 0;
  W.push ws ~prio:0 t.source;
  t.e2 <- W.touched_stamp ws;
  let nodes = t.nodes and e2 = t.e2 in
  let dsink = ref (-1) and running = ref true in
  while !running do
    let u = W.pop_cell ws in
    if u < 0 then running := false
    else if A.unsafe_get nodes (4 * u) <> e2 + 1 then begin
      A.unsafe_set nodes (4 * u) (e2 + 1);
      W.trail_push ws u;
      if u = t.sink then begin
        dsink := A.unsafe_get nodes ((4 * u) + 1);
        running := false
      end
      else begin
        t.cur <- u;
        t.du <- A.unsafe_get nodes ((4 * u) + 1) + A.unsafe_get nodes ((4 * u) + 3);
        iter_row t ws u
      end
    end
  done;
  !dsink

(* Push the unit of flow along the parent-arc chain sink -> source. *)
let augment t ws =
  let v = ref t.sink in
  while !v <> t.source do
    let p = W.parent ws !v in
    let u = p mod t.n in
    flip t u (p / t.n);
    v := u
  done;
  t.flow <- t.flow + 1

(* Keep the caller's exact sink distances for [install]: O(1), no node is
   read here. *)
let seed t ~h =
  if t.solved then invalid_arg "Mcmf_grid.seed: already solved";
  t.h <- h

(* After an early-exit round with sink distance [d]: settled nodes hold
   their exact distance [dist(v) <= d], and every other node's is >= d.
   [pot(v) += dist(v) - d] on the settled trail alone is the textbook
   [pot(v) += min(dist(v), d)] shifted by the constant [-d], so all
   residual reduced costs stay non-negative for the next round. *)
let update_potentials t ws d =
  if d > 0 then begin
    for k = 0 to W.trail_length ws - 1 do
      let v = W.trail_get ws k in
      t.nodes.{(4 * v) + 3} <- pot t v + t.nodes.{(4 * v) + 1} - d
    done
  end

let outcome (t : t) : outcome = { flow = t.flow; cost = t.cost; rounds = t.rounds }

let solve ?(alive = fun () -> true) ?workspace ?stop_when_cost_reaches t =
  if t.solved then invalid_arg "Mcmf_grid.solve: already solved";
  t.solved <- true;
  let ws = match workspace with Some ws -> ws | None -> W.create () in
  let running = ref true in
  while !running && alive () do
    W.begin_flow ws ~nodes:t.n;
    (* Only a growth replaces the record, and only the first round can
       grow it: no potential is installed before that round. *)
    t.nodes <- W.node_record ws;
    t.rounds <- t.rounds + 1;
    let d = round t ws in
    if d < 0 then running := false
    else begin
      (* [d] is a reduced distance; potentials float (seeded, and shifted
         by the lazy update), so undo both ends to get the true cost. *)
      let path_cost = d + pot t t.sink - pot t t.source in
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

(* Request [k]'s unit, from its first start arc carrying flow: out(i)
   leaves by its first direction bit set, in(j) by its own arc, which at
   a pin ends in the sink. That is the first forward arc in row order
   carrying flow at every node. The walk consumes each arc's flow, so
   requests sharing a start cell take its directions in request order. *)
let walk t k =
  let dead_end () = failwith "Mcmf_grid.paths: flow dead-ends" in
  let a = ref t.req_first.(k) in
  while !a < t.req_first.(k + 1) && byte t.rflow !a = 0 do incr a done;
  if !a = t.req_first.(k + 1) then dead_end ();
  flip_byte t.rflow !a;
  let i = ref t.arc_cell.(!a) and cells = ref [ t.arc_cell.(!a) ] in
  while role t !i <> role_pin do
    let bits = byte t.fl !i land 15 in
    if bits = 0 then dead_end ();
    let d = ref 0 in
    while bits land (1 lsl !d) = 0 do incr d done;
    flip_bit t !i !d;
    let j = nbr t ~interior:(role t !i = role_ordinary) !i !d in
    if bit t j 4 = 0 then dead_end ();
    flip_bit t j 4;
    cells := j :: !cells;
    i := j
  done;
  List.rev !cells

let paths t =
  let acc = ref [] in
  for k = 0 to t.nreq - 1 do
    if byte t.sflow k = 1 then begin
      flip_byte t.sflow k;
      acc := (k, walk t k) :: !acc
    end
  done;
  List.rev !acc
