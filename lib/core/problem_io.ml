open Pacor_geom
open Pacor_grid
open Pacor_valve

(* Digits go straight into the buffer: no format string, no
   intermediate string per integer. *)
let rec add_digits buf n =
  if n >= 10 then add_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))

let add_int buf n =
  if n >= 0 then add_digits buf n
  else if n = min_int then Buffer.add_string buf (string_of_int n)
  else begin
    Buffer.add_char buf '-';
    add_digits buf (-n)
  end

(* The emitted form is CANONICAL: two problems that are equal as values
   (same grid, same obstacle set, same valves/clusters/pins/delta) render to
   byte-identical text regardless of the construction order of their lists.
   The serving layer's cache keys ({!fingerprint}) depend on this, so every
   repeatable section is sorted here rather than emitted in storage order.
   Within a cluster line the member order is preserved — it is part of the
   cluster's identity (sequence alignment) — but the lines themselves sort
   by cluster id. *)
let to_string (p : Problem.t) =
  let obstacles = Routing_grid.obstacles p.grid in
  let width = Obstacle_map.width obstacles in
  let buf = Buffer.create (4096 + (32 * Obstacle_map.blocked_count obstacles)) in
  let str s = Buffer.add_string buf s in
  let int n = add_int buf n in
  let sp () = Buffer.add_char buf ' ' in
  let nl () = Buffer.add_char buf '\n' in
  str "# PACOR control-layer routing instance\n";
  str "name ";
  str p.name;
  nl ();
  str "grid ";
  int (Routing_grid.width p.grid);
  sp ();
  int (Routing_grid.height p.grid);
  nl ();
  str "delta ";
  int p.delta;
  nl ();
  (* Obstacles are stored cell by cell: rectangles are a convenience of the
     input format only. They are emitted in [Point.compare] order, x-major,
     by a counting sort on the column: the row-major index scan already
     visits each column's rows in ascending order. *)
  let start = Array.make (width + 1) 0 in
  Obstacle_map.iter_blocked_index obstacles (fun i ->
    let x = (i mod width) + 1 in
    start.(x) <- start.(x) + 1);
  for x = 1 to width do
    start.(x) <- start.(x) + start.(x - 1)
  done;
  let ys = Array.make start.(width) 0 in
  let next = Array.sub start 0 width in
  Obstacle_map.iter_blocked_index obstacles (fun i ->
    let x = i mod width in
    ys.(next.(x)) <- i / width;
    next.(x) <- next.(x) + 1);
  for x = 0 to width - 1 do
    for k = start.(x) to start.(x + 1) - 1 do
      let y = ys.(k) in
      str "obstacle ";
      int x;
      sp ();
      int y;
      sp ();
      int x;
      sp ();
      int y;
      nl ()
    done
  done;
  List.iter
    (fun (v : Valve.t) ->
       str "valve ";
       int v.id;
       sp ();
       int v.position.x;
       sp ();
       int v.position.y;
       sp ();
       str (Activation.string_of_sequence v.sequence);
       nl ())
    (List.sort (fun (a : Valve.t) (b : Valve.t) -> Int.compare a.id b.id) p.valves);
  List.iter
    (fun (c : Cluster.t) ->
       str "cluster ";
       int c.id;
       sp ();
       List.iteri
         (fun k id ->
            if k > 0 then sp ();
            int id)
         (Cluster.valve_ids c);
       nl ())
    (List.sort (fun (a : Cluster.t) (b : Cluster.t) -> Int.compare a.id b.id) p.lm_clusters);
  List.iter
    (fun (pt : Point.t) ->
       str "pin ";
       int pt.x;
       sp ();
       int pt.y;
       nl ())
    (List.sort Point.compare p.pins);
  Buffer.contents buf

let fingerprint p = Digest.to_hex (Digest.string (to_string p))

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
