(* The instance-text codec as it stood before the linear writer and
   parser: a [Printf] line per directive, and a parser that splits each
   line into substrings. Kept verbatim as the oracle the linear codec in
   [Pacor.Problem_io] must match byte for byte (writer) and verdict for
   verdict, message included (parser). *)

open Pacor_geom
open Pacor_grid
open Pacor_valve
open Pacor

let to_string (p : Problem.t) =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s; Buffer.add_char buf '\n') fmt in
  add "# PACOR control-layer routing instance";
  add "name %s" p.name;
  add "grid %d %d" (Routing_grid.width p.grid) (Routing_grid.height p.grid);
  add "delta %d" p.delta;
  (* Obstacles are stored cell by cell: rectangles are a convenience of the
     input format only. *)
  let blocked = ref [] in
  Obstacle_map.iter_blocked (Routing_grid.obstacles p.grid) (fun pt ->
    blocked := pt :: !blocked);
  List.iter
    (fun (pt : Point.t) -> add "obstacle %d %d %d %d" pt.x pt.y pt.x pt.y)
    (List.sort_uniq Point.compare !blocked);
  List.iter
    (fun (v : Valve.t) ->
       add "valve %d %d %d %s" v.id v.position.x v.position.y
         (Activation.string_of_sequence v.sequence))
    (List.sort
       (fun (a : Valve.t) (b : Valve.t) -> Int.compare a.id b.id)
       p.valves);
  List.iter
    (fun (c : Cluster.t) ->
       add "cluster %d %s" c.id
         (String.concat " " (List.map string_of_int (Cluster.valve_ids c))))
    (List.sort
       (fun (a : Cluster.t) (b : Cluster.t) -> Int.compare a.id b.id)
       p.lm_clusters);
  List.iter
    (fun (pt : Point.t) -> add "pin %d %d" pt.x pt.y)
    (List.sort Point.compare p.pins);
  Buffer.contents buf

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

let parse text =
  let acc =
    { name = "unnamed"; dims = None; delta = 1; obstacles = []; valves = [];
      clusters = []; pins = [] }
  in
  let err line fmt = Format.kasprintf (fun s -> Error (Printf.sprintf "line %d: %s" line s)) fmt in
  let parse_int line s =
    match int_of_string_opt s with
    | Some v -> Ok v
    | None -> err line "expected integer, got %S" s
  in
  let rec ints line = function
    | [] -> Ok []
    | s :: rest ->
      (match parse_int line s with
       | Error _ as e -> e
       | Ok v -> (match ints line rest with Ok vs -> Ok (v :: vs) | Error _ as e -> e))
  in
  let handle lineno line =
    let line =
      match String.index_opt line '#' with
      | Some i -> String.sub line 0 i
      | None -> line
    in
    match String.split_on_char ' ' (String.trim line) |> List.filter (fun s -> s <> "") with
    | [] -> Ok ()
    | "name" :: rest ->
      acc.name <- String.concat " " rest;
      Ok ()
    | [ "grid"; w; h ] ->
      (match ints lineno [ w; h ] with
       | Ok [ w; h ] ->
         acc.dims <- Some (w, h);
         Ok ()
       | Ok _ -> assert false
       | Error e -> Error e)
    | [ "delta"; d ] ->
      (match parse_int lineno d with
       | Ok d ->
         acc.delta <- d;
         Ok ()
       | Error e -> Error e)
    | [ "obstacle"; x0; y0; x1; y1 ] ->
      (match ints lineno [ x0; y0; x1; y1 ] with
       | Ok [ x0; y0; x1; y1 ] ->
         acc.obstacles <- Rect.make ~x0 ~y0 ~x1 ~y1 :: acc.obstacles;
         Ok ()
       | Ok _ -> assert false
       | Error e -> Error e)
    | [ "valve"; id; x; y; seq ] ->
      (match ints lineno [ id; x; y ] with
       | Ok [ id; x; y ] ->
         (match Activation.sequence_of_string seq with
          | Ok sequence ->
            acc.valves <-
              Valve.make ~id ~position:(Point.make x y) ~sequence :: acc.valves;
            Ok ()
          | Error e -> err lineno "%s" e)
       | Ok _ -> assert false
       | Error e -> Error e)
    | "cluster" :: id :: members ->
      (match ints lineno (id :: members) with
       | Ok (id :: members) ->
         acc.clusters <- (id, members) :: acc.clusters;
         Ok ()
       | Ok [] -> assert false
       | Error e -> Error e)
    | [ "pin"; x; y ] ->
      (match ints lineno [ x; y ] with
       | Ok [ x; y ] ->
         acc.pins <- Point.make x y :: acc.pins;
         Ok ()
       | Ok _ -> assert false
       | Error e -> Error e)
    | keyword :: _ -> err lineno "unknown or malformed directive %S" keyword
  in
  let lines = String.split_on_char '\n' text in
  let rec run lineno = function
    | [] -> Ok ()
    | l :: rest ->
      (match handle lineno l with Ok () -> run (lineno + 1) rest | Error _ as e -> e)
  in
  match run 1 lines with
  | Error _ as e -> e
  | Ok () ->
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

let fingerprint p = Digest.to_hex (Digest.string (to_string p))
