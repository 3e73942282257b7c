(* The 0-1-BFS deque of the oracles that still run deque searches: the
   CSR solver's unseeded round ([Mcmf_csr]) and the node-split and deque
   seeds of [Escape_oracle]. It lived in [Pacor_route.Workspace] while the
   escape flow's own unseeded rounds ran on it. It is a workspace
   search's queue: a circular int buffer emptied by the workspace's next
   [begin_*] (read off its epoch stamp), whose pushes and pops feed the
   workspace's counters and whose pops tick its budget exactly like
   [Workspace.pop_cell], so a deque search draws from the same budget
   pool as an A* search. *)

module W = Pacor_route.Workspace
module Stats = Pacor_route.Search_stats

type t = {
  ws : W.t;
  mutable stamp : int;   (* the workspace epoch the contents belong to *)
  mutable buf : int array;
  mutable head : int;
  mutable len : int;
}

let create ws = { ws; stamp = W.touched_stamp ws; buf = [||]; head = 0; len = 0 }

(* Empty the deque once the workspace has begun another search. *)
let sync t =
  let e = W.touched_stamp t.ws in
  if e <> t.stamp then begin
    t.stamp <- e;
    t.head <- 0;
    t.len <- 0
  end

(* The capacity is always a power of two (64, doubling), so ring
   positions wrap with a mask. *)
let grow t =
  let cur = Array.length t.buf in
  let ncap = max 64 (2 * cur) in
  let b = Array.make ncap 0 in
  for k = 0 to t.len - 1 do
    b.(k) <- t.buf.((t.head + k) land (cur - 1))
  done;
  t.buf <- b;
  t.head <- 0;
  Stats.grid_alloc_noted (W.stats t.ws)

let push_back t i =
  sync t;
  if t.len = Array.length t.buf then grow t;
  let cap = Array.length t.buf in
  t.buf.((t.head + t.len) land (cap - 1)) <- i;
  t.len <- t.len + 1;
  Stats.pushed (W.stats t.ws)

let push_front t i =
  sync t;
  if t.len = Array.length t.buf then grow t;
  let cap = Array.length t.buf in
  t.head <- (t.head + cap - 1) land (cap - 1);
  t.buf.(t.head) <- i;
  t.len <- t.len + 1;
  Stats.pushed (W.stats t.ws)

(* [-1] means "deque empty or budget exhausted", as for [pop_cell]. *)
let pop_front t =
  sync t;
  if not (Pacor_route.Budget.tick (W.budget t.ws)) then -1
  else if t.len = 0 then -1
  else begin
    let x = t.buf.(t.head) in
    t.head <- (t.head + 1) land (Array.length t.buf - 1);
    t.len <- t.len - 1;
    Stats.popped (W.stats t.ws);
    x
  end

let is_empty t =
  sync t;
  t.len = 0
