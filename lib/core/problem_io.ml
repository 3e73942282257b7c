open Pacor_geom
open Pacor_grid
open Pacor_valve

(* The canonical text is written into render slots, four per domain. A
   slot keeps a text, its digest once computed, its line offsets and the
   inputs it came from, with its own copy of the obstacle bitmap, which
   the caller can change in place. A render writes [p]'s valve and
   cluster lines into a scratch buffer first and compares them with each
   slot's as text. A slot whose inputs all equal [p]'s is returned as it
   is. Otherwise the least recently used slot is written, from a base if
   one is near ({!nearest}): unchanged column runs and pin lines are
   copied, other columns rendered by a strided pass down the bitmap. A
   warm render allocates no text-sized block. *)
type slot = {
  mutable stamp : int;            (* last use; 0 while empty or being written *)
  mutable name : string;
  mutable delta : int;
  mutable map : Obstacle_map.t;
  mutable pins : Point.t list;
  mutable b : Bytes.t;
  mutable pos : int;              (* the text is [b]'s first [pos] bytes *)
  mutable cols : int array;       (* column x's first obstacle line at x,
                                     the first valve line at width *)
  mutable pins_at : int;          (* the first pin line *)
  mutable digest : string;        (* hex; "" until computed *)
}

type state = {
  slots : slot array;
  valves : slot;              (* scratch: the rendered problem's valve and cluster lines *)
  mutable clock : int;
  mutable marks : Bytes.t;    (* the columns a render writes afresh *)
}

let state_key =
  Domain.DLS.new_key (fun () ->
    let slot _ =
      { stamp = 0; name = ""; delta = 0; map = Obstacle_map.create ~width:1 ~height:1;
        pins = []; b = Bytes.empty; pos = 0; cols = [||]; pins_at = 0; digest = "" }
    in
    { slots = Array.init 4 slot; valves = slot (); clock = 0; marks = Bytes.empty })

let grow o n =
  let b = Bytes.create (max (max (o.pos + n) 4096) (2 * Bytes.length o.b)) in
  Bytes.blit o.b 0 b 0 o.pos;
  o.b <- b

let[@inline] reserve o n = if o.pos + n > Bytes.length o.b then grow o n

let[@inline] add_char o c =
  reserve o 1;
  Bytes.unsafe_set o.b o.pos c;
  o.pos <- o.pos + 1

let add_string o s =
  reserve o (String.length s);
  Bytes.unsafe_blit_string s 0 o.b o.pos (String.length s);
  o.pos <- o.pos + String.length s

(* Bytes [a, e) of [src]'s text. *)
let add_sub o src a e =
  reserve o (e - a);
  Bytes.blit src.b a o.b o.pos (e - a);
  o.pos <- o.pos + e - a

(* A buffer over 1 MB and eight times its text is cut down to it: a slot
   reused for a small instance does not keep a very large one's size. *)
let fit o = if Bytes.length o.b > max (8 * o.pos) (1 lsl 20) then o.b <- Bytes.sub o.b 0 o.pos

(* The decimal digits of [n >= 0] at [pos] of [b], which has room for
   them; returns their end. No format string, no intermediate string. *)
let rec put_digits b pos n =
  let pos = if n >= 10 then put_digits b pos (n / 10) else pos in
  Bytes.unsafe_set b pos (Char.unsafe_chr (48 + (n mod 10)));
  pos + 1

(* [n], then the separator [c]. *)
let add_int o n c =
  if n = min_int then add_string o (string_of_int n)
  else begin
    reserve o 20;
    if n < 0 then add_char o '-';
    o.pos <- put_digits o.b o.pos (abs n)
  end;
  add_char o c

let add_obstacle o x y =
  add_string o "obstacle ";
  add_int o x ' ';
  add_int o y ' ';
  add_int o x ' ';
  add_int o y '\n'

(* Valve lines, then cluster lines. Within a cluster line the member
   order is preserved — it is part of the cluster's identity (sequence
   alignment) — but the lines themselves sort by cluster id. *)
let add_valves o (p : Problem.t) =
  List.iter
    (fun (v : Valve.t) ->
       add_string o "valve ";
       add_int o v.id ' ';
       add_int o v.position.x ' ';
       add_int o v.position.y ' ';
       let n = Array.length v.sequence in
       reserve o (n + 1);
       for i = 0 to n - 1 do
         Bytes.unsafe_set o.b (o.pos + i) (Activation.char_of_status (Array.unsafe_get v.sequence i))
       done;
       o.pos <- o.pos + n;
       add_char o '\n')
    (List.sort (fun (a : Valve.t) (b : Valve.t) -> Int.compare a.id b.id) p.valves);
  let rec members = function
    | [] -> add_char o '\n'
    | [ (v : Valve.t) ] -> add_int o v.id '\n'
    | (v : Valve.t) :: rest ->
      add_int o v.id ' ';
      members rest
  in
  List.iter
    (fun (c : Cluster.t) ->
       add_string o "cluster ";
       add_int o c.id ' ';
       members c.valves)
    (List.sort (fun (a : Cluster.t) (b : Cluster.t) -> Int.compare a.id b.id) p.lm_clusters)

let add_pins o (p : Problem.t) =
  List.iter
    (fun (pt : Point.t) ->
       add_string o "pin ";
       add_int o pt.x ' ';
       add_int o pt.y '\n')
    (List.sort Point.compare p.pins)

(* Whether slot [s]'s valve and cluster lines are [v]'s text, compared
   eight bytes a step. *)
let same_valves s v =
  let a = s.cols.(Obstacle_map.width s.map) and n = v.pos in
  let rec from i =
    if i + 8 <= n then
      Int64.equal (Bytes.get_int64_ne s.b (a + i)) (Bytes.get_int64_ne v.b i) && from (i + 8)
    else i = n || (Bytes.get s.b (a + i) = Bytes.get v.b i && from (i + 1))
  in
  s.pins_at - a = n && from 0

let same_pins s (p : Problem.t) = s.pins == p.pins || List.equal Point.equal s.pins p.pins

(* The slot of [map]'s size whose bitmap differs from it in the fewest
   columns, at most a quarter of them, with those columns marked in
   [st.marks]; with none, the columns holding an obstacle are. Each diff stops once it
   passes the best so far: designs of one size differ in thousands of
   cells. *)
let nearest st map =
  let width = Obstacle_map.width map and height = Obstacle_map.height map in
  if Bytes.length st.marks < width then st.marks <- Bytes.create width;
  let best = ref None and fewest = ref ((width / 4) + 1) in
  Array.iter
    (fun s ->
       if s.stamp > 0 && Obstacle_map.width s.map = width && Obstacle_map.height s.map = height
       then begin
         let n = Obstacle_map.diff_columns s.map map st.marks ~limit:(!fewest - 1) in
         if n < !fewest then begin
           best := Some s;
           fewest := n
         end
       end)
    st.slots;
  (match !best with
   | Some s -> ignore (Obstacle_map.diff_columns s.map map st.marks ~limit:width)
   | None ->
     Bytes.fill st.marks 0 width '\000';
     Obstacle_map.iter_blocked_index map (fun i -> Bytes.unsafe_set st.marks (i mod width) '\001'));
  !best

(* [o]'s obstacles and tail: each unmarked column run copied from
   [base]'s text, its line offsets shifted to where it now starts, each
   marked column rendered by a strided pass down the bitmap, then the
   valve and cluster lines from the scratch buffer, and the pin lines,
   copied from [base] when its pins are [p]'s. *)
let splice st o base (p : Problem.t) map =
  let width = Obstacle_map.width map in
  let x = ref 0 in
  while !x < width do
    let a = !x in
    match base with
    | Some base when Bytes.get st.marks a = '\000' ->
      while !x < width && Bytes.get st.marks !x = '\000' do incr x done;
      let shift = o.pos - base.cols.(a) in
      for c = a to !x - 1 do o.cols.(c) <- base.cols.(c) + shift done;
      add_sub o base base.cols.(a) base.cols.(!x)
    | _ ->
      o.cols.(a) <- o.pos;
      if Bytes.get st.marks a <> '\000' then begin
        for y = 0 to Obstacle_map.height map - 1 do
          if not (Obstacle_map.free_i map ((y * width) + a)) then add_obstacle o a y
        done
      end;
      incr x
  done;
  o.cols.(width) <- o.pos;
  add_sub o st.valves 0 st.valves.pos;
  o.pins_at <- o.pos;
  match base with
  | Some b when same_pins b p -> add_sub o b b.pins_at b.pos
  | _ -> add_pins o p

(* The emitted form is CANONICAL: two problems that are equal as values
   (same grid, same obstacle set, same valves/clusters/pins/delta) render to
   byte-identical text regardless of the construction order of their lists.
   The serving layer's cache keys ({!fingerprint}) depend on this, so every
   repeatable section is sorted here rather than emitted in storage order.
   Obstacles are stored cell by cell: rectangles are a convenience of the
   input format only; they are emitted in [Point.compare] order, x-major.
   Returns the slot holding the text. *)
let render (p : Problem.t) =
  let st = Domain.DLS.get state_key in
  let map = Routing_grid.obstacles p.grid in
  st.clock <- st.clock + 1;
  st.valves.pos <- 0;
  add_valves st.valves p;
  fit st.valves;
  let exact s =
    s.stamp > 0 && s.delta = p.delta && String.equal s.name p.name && same_pins s p
    && Obstacle_map.equal s.map map && same_valves s st.valves
  in
  match Array.find_opt exact st.slots with
  | Some s ->
    s.stamp <- st.clock;
    s
  | None ->
    let base = nearest st map in
    (* The least recently used slot other than the base. *)
    let free s = match base with Some b -> s != b | None -> true in
    let o = ref st.slots.(if free st.slots.(0) then 0 else 1) in
    Array.iter (fun s -> if free s && s.stamp < !o.stamp then o := s) st.slots;
    let o = !o in
    let width = Obstacle_map.width map in
    o.stamp <- 0;
    o.pos <- 0;
    o.digest <- "";
    if Array.length o.cols <> width + 1 then o.cols <- Array.make (width + 1) 0;
    add_string o "# PACOR control-layer routing instance\nname ";
    add_string o p.name;
    add_string o "\ngrid ";
    add_int o (Routing_grid.width p.grid) ' ';
    add_int o (Routing_grid.height p.grid) '\n';
    add_string o "delta ";
    add_int o p.delta '\n';
    Option.iter (fun b -> b.stamp <- st.clock) base;
    splice st o base p map;
    fit o;
    o.name <- p.name;
    o.delta <- p.delta;
    o.pins <- p.pins;
    if Obstacle_map.width o.map = width && Obstacle_map.height o.map = Obstacle_map.height map
    then Obstacle_map.blit ~src:map ~dst:o.map
    else o.map <- Obstacle_map.copy map;
    o.stamp <- st.clock;
    o

let to_string p =
  let o = render p in
  Bytes.sub_string o.b 0 o.pos

let fingerprint p =
  let o = render p in
  if o.digest = "" then o.digest <- Digest.to_hex (Digest.subbytes o.b 0 o.pos);
  o.digest

(* 16M cells (~2^24): far above any realistic chip, far below what makes
   grid allocation or block-filling a denial-of-service vector. *)
let max_grid_cells = 16_777_216

type accum = {
  mutable name : string;
  mutable dims : (int * int) option;
  mutable delta : int;
  mutable obstacles : Rect.t list;
  mutable valves : Valve.t list;
  mutable clusters : (int * int list) list;
  mutable pins : Point.t list;
}

(* The parser scans each line in place: cut at the first ['#'], trim the
   ends, split on single spaces and drop empty tokens. These are the
   tokens of [String.split_on_char ' ' (String.trim line)], held as
   (start, stop) offsets into the text, so a well-formed numeric token
   never becomes a substring. Errors leave through [Malformed]. *)

exception Malformed of string

type scanner = {
  text : string;
  mutable lineno : int;
  mutable ntok : int;
  mutable starts : int array;
  mutable stops : int array;
}

let malformed sc fmt =
  Format.kasprintf
    (fun s -> raise (Malformed (Printf.sprintf "line %d: %s" sc.lineno s)))
    fmt

(* Whitespace that [String.trim] strips from both ends of a line. *)
let is_trim_space = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

let rec find_newline text i len =
  if i = len || String.unsafe_get text i = '\n' then i else find_newline text (i + 1) len

let rec find_cut text i len =
  if i = len then i
  else
    match String.unsafe_get text i with
    | '\n' | '#' -> i
    | _ -> find_cut text (i + 1) len

let push sc a b =
  if sc.ntok = Array.length sc.starts then begin
    let grow arr = Array.append arr (Array.make (Array.length arr) 0) in
    sc.starts <- grow sc.starts;
    sc.stops <- grow sc.stops
  end;
  sc.starts.(sc.ntok) <- a;
  sc.stops.(sc.ntok) <- b;
  sc.ntok <- sc.ntok + 1

(* Tokenise the line [text.[a .. c-1]] (already cut at ['#']). *)
let tokenise sc a c =
  let text = sc.text in
  let a = ref a and c = ref c in
  while !a < !c && is_trim_space (String.unsafe_get text !a) do incr a done;
  while !c > !a && is_trim_space (String.unsafe_get text (!c - 1)) do decr c done;
  sc.ntok <- 0;
  let i = ref !a in
  while !i < !c do
    if String.unsafe_get text !i = ' ' then incr i
    else begin
      let s = !i in
      while !i < !c && String.unsafe_get text !i <> ' ' do incr i done;
      push sc s !i
    end
  done

let token sc k = String.sub sc.text sc.starts.(k) (sc.stops.(k) - sc.starts.(k))

let token_is sc k word =
  let a = sc.starts.(k) and n = String.length word in
  let rec same i =
    i = n || (String.unsafe_get sc.text (a + i) = String.unsafe_get word i && same (i + 1))
  in
  sc.stops.(k) - a = n && same 0

(* The value of a run of decimal digits, or -1 at any other character. *)
let rec plain_digits text i stop v =
  if i = stop then v
  else
    match String.unsafe_get text i with
    | '0' .. '9' as ch -> plain_digits text (i + 1) stop ((v * 10) + Char.code ch - 48)
    | _ -> -1

(* Plain decimal tokens short enough not to overflow are read directly;
   anything else (signs, radix prefixes, underscores, junk) goes through
   [int_of_string_opt], which decides acceptance and value. *)
let int_at sc k =
  let a = sc.starts.(k) and b = sc.stops.(k) in
  let v = if b - a <= 18 then plain_digits sc.text a b 0 else -1 in
  if v >= 0 then v
  else
    let s = token sc k in
    match int_of_string_opt s with
    | Some v -> v
    | None -> malformed sc "expected integer, got %S" s

let directive sc acc =
  let n = sc.ntok in
  if n = 0 then ()
  else if token_is sc 0 "name" then
    acc.name <- String.concat " " (List.init (n - 1) (fun k -> token sc (k + 1)))
  else if n = 3 && token_is sc 0 "grid" then begin
    let w = int_at sc 1 in
    let h = int_at sc 2 in
    acc.dims <- Some (w, h)
  end
  else if n = 2 && token_is sc 0 "delta" then acc.delta <- int_at sc 1
  else if n = 5 && token_is sc 0 "obstacle" then begin
    let x0 = int_at sc 1 in
    let y0 = int_at sc 2 in
    let x1 = int_at sc 3 in
    let y1 = int_at sc 4 in
    acc.obstacles <- Rect.make ~x0 ~y0 ~x1 ~y1 :: acc.obstacles
  end
  else if n = 5 && token_is sc 0 "valve" then begin
    let id = int_at sc 1 in
    let x = int_at sc 2 in
    let y = int_at sc 3 in
    match Activation.sequence_of_string (token sc 4) with
    | Ok sequence ->
      acc.valves <- Valve.make ~id ~position:(Point.make x y) ~sequence :: acc.valves
    | Error e -> malformed sc "%s" e
  end
  else if n >= 2 && token_is sc 0 "cluster" then begin
    let id = int_at sc 1 in
    let rec members k =
      if k = n then []
      else
        let v = int_at sc k in
        v :: members (k + 1)
    in
    acc.clusters <- (id, members 2) :: acc.clusters
  end
  else if n = 3 && token_is sc 0 "pin" then begin
    let x = int_at sc 1 in
    let y = int_at sc 2 in
    acc.pins <- Point.make x y :: acc.pins
  end
  else malformed sc "unknown or malformed directive %S" (token sc 0)

(* Lines are numbered from 1 and end at ['\n'] or at the end of the
   text, so a trailing newline makes a last, empty line — the lines of
   [String.split_on_char '\n']. *)
let rec scan_lines sc acc a =
  let text = sc.text in
  let len = String.length text in
  let c = find_cut text a len in
  let b = if c < len && String.unsafe_get text c = '#' then find_newline text c len else c in
  sc.lineno <- sc.lineno + 1;
  tokenise sc a c;
  directive sc acc;
  if b < len then scan_lines sc acc (b + 1)

let parse text =
  let acc =
    { name = "unnamed"; dims = None; delta = 1; obstacles = []; valves = [];
      clusters = []; pins = [] }
  in
  let sc = { text; lineno = 0; ntok = 0; starts = Array.make 8 0; stops = Array.make 8 0 } in
  match scan_lines sc acc 0 with
  | exception Malformed m -> Error m
  | () ->
    (match acc.dims with
     | None -> Error "missing 'grid' directive"
     | Some (width, height) when width <= 0 || height <= 0 ->
       Error (Printf.sprintf "grid %dx%d: dimensions must be positive" width height)
     | Some (width, height) when width > max_grid_cells / height ->
       (* An attacker-sized grid would otherwise allocate (and block-fill)
          width*height cells before any semantic validation runs. *)
       Error
         (Printf.sprintf "grid %dx%d: exceeds the %d-cell limit" width height
            max_grid_cells)
     | Some (width, height) ->
       (* Clamp obstacle rectangles to the grid: [block_rect] iterates the
          whole rectangle, so an out-of-range corner must not control the
          loop bounds. Fully off-grid rectangles block nothing. *)
       let clamp (r : Rect.t) =
         if r.Rect.x1 < 0 || r.Rect.y1 < 0 || r.Rect.x0 >= width
            || r.Rect.y0 >= height
         then None
         else if r.Rect.x0 >= 0 && r.Rect.y0 >= 0 && r.Rect.x1 < width && r.Rect.y1 < height
         then Some r
         else
           Some
             (Rect.make ~x0:(max 0 r.Rect.x0) ~y0:(max 0 r.Rect.y0)
                ~x1:(min (width - 1) r.Rect.x1) ~y1:(min (height - 1) r.Rect.y1))
       in
       let grid =
         Routing_grid.create ~width ~height
           ~obstacles:(List.filter_map clamp (List.rev acc.obstacles)) ()
       in
       let valves = List.rev acc.valves in
       let find_valve id = List.find_opt (fun (v : Valve.t) -> v.id = id) valves in
       let rec dup_cluster_id seen = function
         | [] -> None
         | (id, _) :: rest ->
           if List.mem id seen then Some id else dup_cluster_id (id :: seen) rest
       in
       let rec build_clusters = function
         | [] -> Ok []
         | (id, members) :: rest ->
           let vs = List.filter_map find_valve members in
           if List.length vs <> List.length members then
             Error (Printf.sprintf "cluster %d references an unknown valve" id)
           else
             (match Cluster.make ~id ~length_matched:true vs with
              | Error e -> Error (Printf.sprintf "cluster %d: %s" id e)
              | Ok c ->
                (match build_clusters rest with
                 | Ok cs -> Ok (c :: cs)
                 | Error _ as e -> e))
       in
       (match dup_cluster_id [] (List.rev acc.clusters) with
        | Some id -> Error (Printf.sprintf "duplicate cluster id %d" id)
        | None ->
          (match build_clusters (List.rev acc.clusters) with
           | Error _ as e -> e
           | Ok lm_clusters ->
             Problem.create ~name:acc.name ~grid ~valves ~lm_clusters
               ~pins:(List.rev acc.pins) ~delta:acc.delta ())))

(* Totality backstop: every anticipated failure above already returns
   [Error], so anything escaping here is a parser bug — still reported as
   a value, never as an exception, because untrusted input must not be
   able to crash a batch worker. *)
let of_string text =
  try parse text
  with exn -> Error ("parser: uncaught exception: " ^ Printexc.to_string exn)

let save p ~path =
  try
    let oc = open_out path in
    output_string oc (to_string p);
    close_out oc;
    Ok ()
  with Sys_error e -> Error e

let load ~path =
  try
    let ic = open_in path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    of_string s
  with
  | Sys_error e -> Error e
  | exn -> Error (Printexc.to_string exn)
