open Pacor_grid

let default_cap = 256

(* Vertices [0 .. n-1] are the region's cells in BFS order (the source is
   vertex 0); vertex [n] is the hub. Cells map to vertices through an
   open-addressing hash whose slots are live only when stamped with the
   current call's [epoch], so nothing is cleared between calls. *)
type t = {
  cap : int;
  hash_mask : int;              (* hash size - 1, a power of two minus one *)
  mutable cell : int array;     (* vertex -> cell; also the BFS queue *)
  mutable to_hub : bool array;  (* the vertex has an enterable neighbour
                                   outside the region *)
  mutable disc : int array;     (* DFS discovery time, -1 undiscovered *)
  mutable low : int array;
  mutable par : int array;      (* DFS parent vertex, -1 for the root *)
  mutable cursor : int array;   (* next neighbour the DFS will try *)
  mutable block : int array;    (* head vertex of the block holding the
                                   tree edge into this vertex, -1 while
                                   unresolved *)
  mutable on_path : int array;  (* [epoch] when the block headed by this
                                   vertex lies on the source-target path *)
  mutable hkey : int array;
  mutable hvertex : int array;
  mutable hstamp : int array;
  mutable epoch : int;
}

let create ?(cap = default_cap) () =
  if cap < 1 then invalid_arg "Block_cut.create: cap < 1";
  (* A power of two at least four times [cap]: probes stay short. *)
  let rec size k = if k >= 4 * cap then k else size (2 * k) in
  {
    cap;
    hash_mask = size 1 - 1;
    cell = [||];
    to_hub = [||];
    disc = [||];
    low = [||];
    par = [||];
    cursor = [||];
    block = [||];
    on_path = [||];
    hkey = [||];
    hvertex = [||];
    hstamp = [||];
    epoch = 0;
  }

let ensure t =
  if Array.length t.cell = 0 then begin
    let v () = Array.make (t.cap + 1) 0 in
    t.cell <- v ();
    t.to_hub <- Array.make (t.cap + 1) false;
    t.disc <- v ();
    t.low <- v ();
    t.par <- v ();
    t.cursor <- v ();
    t.block <- v ();
    t.on_path <- v ();
    t.hkey <- Array.make (t.hash_mask + 1) 0;
    t.hvertex <- Array.make (t.hash_mask + 1) 0;
    t.hstamp <- Array.make (t.hash_mask + 1) 0
  end

let slot t c = ((c * 0x2545F4914F6CDD1D) lsr 32) land t.hash_mask

(* The vertex of cell [c], or -1 when [c] is outside the region. *)
let vertex_of t c =
  let rec probe h =
    if t.hstamp.(h) <> t.epoch then -1
    else if t.hkey.(h) = c then t.hvertex.(h)
    else probe ((h + 1) land t.hash_mask)
  in
  probe (slot t c)

let add t c v =
  let rec probe h =
    if t.hstamp.(h) = t.epoch then probe ((h + 1) land t.hash_mask)
    else begin
      t.hstamp.(h) <- t.epoch;
      t.hkey.(h) <- c;
      t.hvertex.(h) <- v
    end
  in
  probe (slot t c);
  t.cell.(v) <- c

(* The [k]-th 4-neighbour of cell [i] in {!Routing_grid.iter_neighbours4}
   order, or -1 when it is off the grid. *)
let neighbour ~width ~cells i k =
  match k with
  | 0 -> if (i mod width) + 1 < width then i + 1 else -1
  | 1 -> if i mod width > 0 then i - 1 else -1
  | 2 -> if i + width < cells then i + width else -1
  | _ -> if i >= width then i - width else -1

let max_length t ~grid ~enterable ~source ~target =
  ensure t;
  t.epoch <- t.epoch + 1;
  let width = Routing_grid.width grid and cells = Routing_grid.cells grid in
  (* The region: BFS from the source, not through the target. *)
  add t source 0;
  let n = ref 1 and head = ref 0 in
  while !head < !n && !n < t.cap do
    let u = t.cell.(!head) in
    incr head;
    if u <> target then
      for k = 0 to 3 do
        let c = neighbour ~width ~cells u k in
        if !n < t.cap && c >= 0 && enterable c && vertex_of t c < 0 then begin
          add t c !n;
          incr n
        end
      done
  done;
  let n = !n in
  let target_v = vertex_of t target in
  if target_v < 0 then None
  else begin
    let hub = n in
    for v = 0 to n - 1 do
      let u = t.cell.(v) in
      let out = ref false in
      for k = 0 to 3 do
        let c = neighbour ~width ~cells u k in
        if (not !out) && c >= 0 && enterable c && vertex_of t c < 0 then out := true
      done;
      t.to_hub.(v) <- !out
    done;
    (* [next_of u] advances [u]'s cursor: a neighbour vertex, -1 for a
       neighbour that is not one, -2 once [u] is exhausted. *)
    let next_of u =
      let k = t.cursor.(u) in
      if u = hub then begin
        let rec scan v =
          if v >= n then -2 else if t.to_hub.(v) then v else scan (v + 1)
        in
        let v = scan k in
        if v >= 0 then t.cursor.(u) <- v + 1;
        v
      end
      else begin
        t.cursor.(u) <- k + 1;
        if k < 4 then begin
          let c = neighbour ~width ~cells t.cell.(u) k in
          if c < 0 then -1 else vertex_of t c
        end
        else if k = 4 then (if t.to_hub.(u) then hub else -1)
        else -2
      end
    in
    for v = 0 to hub do
      t.disc.(v) <- -1;
      t.block.(v) <- -1
    done;
    let time = ref 0 in
    let discover v p =
      t.disc.(v) <- !time;
      t.low.(v) <- !time;
      incr time;
      t.par.(v) <- p;
      t.cursor.(v) <- 0
    in
    (* Iterative Tarjan from the source. A finished vertex whose subtree
       reaches no higher than its parent heads a new block; every other
       tree edge shares its parent edge's block. *)
    discover 0 (-1);
    let u = ref 0 in
    while !u >= 0 do
      let cur = !u in
      match next_of cur with
      | -2 ->
        let p = t.par.(cur) in
        if p >= 0 then begin
          if t.low.(cur) < t.low.(p) then t.low.(p) <- t.low.(cur);
          if t.low.(cur) >= t.disc.(p) then t.block.(cur) <- cur
        end;
        u := p
      | -1 -> ()
      | w ->
        if t.disc.(w) < 0 then begin
          discover w cur;
          u := w
        end
        else if w <> t.par.(cur) && t.disc.(w) < t.low.(cur) then t.low.(cur) <- t.disc.(w)
    done;
    (* A child of the root always heads a block, so resolution never
       reaches the root. *)
    let rec block_of v =
      if t.block.(v) >= 0 then t.block.(v)
      else begin
        let b = block_of t.par.(v) in
        t.block.(v) <- b;
        b
      end
    in
    let v = ref target_v in
    while !v <> 0 do
      t.on_path.(block_of !v) <- t.epoch;
      v := t.par.(!v)
    done;
    let on_path v = v <> 0 && t.disc.(v) >= 0 && t.on_path.(block_of v) = t.epoch in
    if on_path hub then None
    else begin
      (* The union of the path's blocks: the source plus every vertex
         whose tree edge lies in one of them. *)
      let union = ref 1 in
      for v = 1 to n - 1 do
        if on_path v then incr union
      done;
      let dist =
        abs ((source mod width) - (target mod width)) + abs ((source / width) - (target / width))
      in
      let longest = !union - 1 in
      Some (if (longest - dist) land 1 = 0 then longest else longest - 1)
    end
  end
