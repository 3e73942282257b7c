(* The linear instance-text codec against its oracle ([Codec_oracle], the
   [Printf] writer and split-based parser it replaced): byte-equal text on
   every problem, and the same verdict on every text — the same
   fingerprint on [Ok], the same message on [Error]. The in-place
   fingerprint against an md5 of the oracle's text, and the line
   protocol's JSON codec against [Json_oracle], the one it replaced. *)

open Pacor_geom
open Pacor_grid
open Pacor_valve
open Pacor
module Synthetic = Pacor_designs.Synthetic
module Fpva = Pacor_designs.Fpva

let corpus_dir =
  match Sys.getenv_opt "DUNE_SOURCEROOT" with
  | Some root -> Filename.concat root "corpus"
  | None -> Filename.concat (Sys.getcwd ()) "../../../corpus"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let corpus_files =
  [ "corpus-dense.chip"; "corpus-pairs.chip"; "corpus-obstacles.chip";
    "corpus-bigcluster.chip";
    Filename.concat "degenerate" "corpus-empty-clusters.chip";
    Filename.concat "degenerate" "corpus-infeasible.chip" ]

let corpus_texts =
  lazy (List.map (fun f -> (f, read_file (Filename.concat corpus_dir f))) corpus_files)

let named_designs () =
  List.map (fun n -> (n, Pacor_designs.Table1.load_exn n)) Pacor_designs.Table1.names
  @ List.map
      (fun s -> (Pacor_designs.Scaled.name s, Pacor_designs.Scaled.load_exn s))
      Pacor_designs.Scaled.scales

(* The oracle writer, with a readable failure: the first differing line. *)
let check_writer what p =
  let want = Codec_oracle.to_string p and got = Problem_io.to_string p in
  if not (String.equal want got) then begin
    let w = Array.of_list (String.split_on_char '\n' want)
    and g = Array.of_list (String.split_on_char '\n' got) in
    let rec first i =
      if i >= Array.length w || i >= Array.length g || w.(i) <> g.(i) then i
      else first (i + 1)
    in
    let i = first 0 in
    let line a = if i < Array.length a then a.(i) else "<end>" in
    Alcotest.failf "%s: writer differs from the oracle at line %d: want %S, got %S" what
      (i + 1) (line w) (line g)
  end

(* The same verdict as the oracle parser: on [Ok], problems that render to
   the same canonical text (so the same fingerprint), which the writer
   renders as the oracle writer does; on [Error], the same message. *)
let same_verdict text =
  match (Codec_oracle.of_string text, Problem_io.of_string text) with
  | Ok a, Ok b ->
    String.equal (Codec_oracle.to_string a) (Codec_oracle.to_string b)
    && String.equal (Problem_io.fingerprint a) (Problem_io.fingerprint b)
    && String.equal (Problem_io.to_string b) (Codec_oracle.to_string b)
  | Error a, Error b -> String.equal a b
  | Ok _, Error e -> QCheck.Test.fail_reportf "oracle accepts, linear parser: %s" e
  | Error e, Ok _ -> QCheck.Test.fail_reportf "linear parser accepts, oracle: %s" e

(* ---------- the writer ---------- *)

let test_writer_named () =
  List.iter (fun (name, p) -> check_writer name p) (named_designs ())

let test_writer_corpus () =
  List.iter
    (fun (f, text) ->
       match Codec_oracle.of_string text with
       | Error e -> Alcotest.failf "%s: %s" f e
       | Ok p -> check_writer f p)
    (Lazy.force corpus_texts)

let gen_synthetic =
  QCheck.Gen.(
    map
      (fun ((width, height, obstacle_cells), (sizes, singles, seed)) ->
         {
           Synthetic.name = "codec-q";
           width;
           height;
           obstacle_cells;
           lm_cluster_sizes = sizes;
           singleton_valves = singles;
           pin_count = 2 * (List.fold_left ( + ) singles sizes) + 2;
           seed = Int64.of_int seed;
           delta = 2;
         })
      (pair
         (triple (int_range 10 48) (int_range 10 48) (int_range 0 80))
         (triple (list_size (int_range 0 3) (int_range 2 4)) (int_range 0 5) nat)))

let prop_writer_synthetic =
  QCheck.Test.make ~count:60 ~name:"writer = oracle on Synthetic problems"
    (QCheck.make gen_synthetic) (fun spec ->
      match Synthetic.generate spec with
      | Error _ -> QCheck.assume_fail ()
      | Ok p -> String.equal (Codec_oracle.to_string p) (Problem_io.to_string p))

let gen_fpva =
  QCheck.Gen.(
    map
      (fun ((rows, cols, pitch), (group, seed, delta)) ->
         { Fpva.name = "codec-fpva"; rows; cols; pitch; group; seed = Int64.of_int seed; delta })
      (pair
         (triple (int_range 2 7) (int_range 2 7) (int_range 2 5))
         (triple (int_range 1 3) nat (int_range 0 3))))

let prop_writer_fpva =
  QCheck.Test.make ~count:40 ~name:"writer = oracle on Fpva problems" (QCheck.make gen_fpva)
    (fun spec ->
      match Fpva.generate spec with
      | Error _ -> QCheck.assume_fail ()
      | Ok p -> String.equal (Codec_oracle.to_string p) (Problem_io.to_string p))

(* A random obstacle bitmap on grids from 1x2 up, 1-wide and 1-tall ones
   included. Cell (0, 0) holds the valve and the last cell the pin; every
   other cell, the rest of the last row and column included, is blocked
   with probability 1/2 (or, on a dense draw, 7/8). *)
let gen_bitmap_problem =
  QCheck.Gen.(
    let dims =
      oneof
        [ map (fun h -> (1, h)) (int_range 2 40); map (fun w -> (w, 1)) (int_range 2 40);
          pair (int_range 1 24) (int_range 1 24) ]
    in
    dims >>= fun (w, h) ->
    let w, h = if w * h < 2 then (w, h + 1) else (w, h) in
    bool >>= fun dense ->
    map (fun bits -> (w, h, bits)) (list_repeat (w * h) (int_bound (if dense then 7 else 1))))

let bitmap_problem (w, h, bits) =
  let valve = Point.make 0 0 and pin = Point.make (w - 1) (h - 1) in
  let obstacles =
    List.concat
      (List.mapi
         (fun i b ->
            let p = Point.make (i mod w) (i / w) in
            if b <> 0 && (not (Point.equal p valve)) && not (Point.equal p pin) then
              [ Rect.make ~x0:p.x ~y0:p.y ~x1:p.x ~y1:p.y ]
            else [])
         bits)
  in
  let grid = Routing_grid.create ~width:w ~height:h ~obstacles () in
  let v = Valve.make ~id:0 ~position:valve ~sequence:[| Activation.Open |] in
  Problem.create_exn ~name:"bitmap" ~grid ~valves:[ v ] ~pins:[ pin ] ()

let prop_writer_bitmap =
  QCheck.Test.make ~count:300 ~name:"writer = oracle on random obstacle bitmaps"
    (QCheck.make
       ~print:(fun (w, h, _) -> Printf.sprintf "%dx%d grid" w h)
       gen_bitmap_problem)
    (fun b ->
      let p = bitmap_problem b in
      String.equal (Codec_oracle.to_string p) (Problem_io.to_string p))

(* [fingerprint] digests the domain's render buffer in place. On a fresh
   domain, whose buffer starts at 64 KB, two problems' fingerprints and
   texts are taken interleaved, and each must be the md5 of the oracle's
   text. The named designs include Chip1, whose 70 KB text grows the
   buffer. *)
let large_designs =
  lazy (Array.of_list (List.map snd (named_designs ())))

let prop_fingerprint_in_place =
  QCheck.Test.make ~count:40 ~name:"fingerprint = md5 of the oracle text, interleaved"
    QCheck.(
      triple (make gen_synthetic)
        (make QCheck.Gen.(int_bound 1000))
        (make QCheck.Gen.(int_bound 1000)))
    (fun (spec, i, j) ->
      let named = Lazy.force large_designs in
      let a = named.(i mod Array.length named) in
      let b =
        match Synthetic.generate spec with Ok p -> p | Error _ -> named.(j mod Array.length named)
      in
      let md5 p = Digest.to_hex (Digest.string (Codec_oracle.to_string p)) in
      let want = [ md5 a; md5 b; Codec_oracle.to_string a; md5 b; md5 a; Codec_oracle.to_string b ] in
      let got =
        Domain.join
          (Domain.spawn (fun () ->
             let fa = Problem_io.fingerprint a in
             let fb = Problem_io.fingerprint b in
             let ta = Problem_io.to_string a in
             let fb' = Problem_io.fingerprint b in
             let fa' = Problem_io.fingerprint a in
             [ fa; fb; ta; fb'; fa'; Problem_io.to_string b ]))
      in
      List.iteri
        (fun k (w, g) ->
          if not (String.equal w g) then QCheck.Test.fail_reportf "call %d differs from the oracle" k)
        (List.combine want got);
      true)

(* Render slots: a render equal to a recent one returns its text, a near
   one is spliced from it. Random edit chains, interleaved over Chip2, a
   seed variant of the same size and Chip1, must keep [to_string] equal to
   the oracle's text and [fingerprint] to its md5, through exact hits,
   splices and full renders alike. *)
let slot_problems =
  lazy
    (let chip2 = Pacor_designs.Table1.load_exn "Chip2" in
     let variant =
       match Pacor_designs.Table1.spec_of "Chip2" with
       | None -> Alcotest.fail "Chip2 spec missing"
       | Some s ->
         Synthetic.generate_exn
           { s with Synthetic.name = "Chip2-v1"; seed = Int64.add s.Synthetic.seed 1L }
     in
     [| chip2; variant; Pacor_designs.Table1.load_exn "Chip1" |])

let check_render ?(digest_first = false) what p =
  let want = Codec_oracle.to_string p in
  let text () =
    if not (String.equal (Problem_io.to_string p) want) then
      QCheck.Test.fail_reportf "%s: text differs from the oracle" what
  in
  if not digest_first then text ();
  if not (String.equal (Problem_io.fingerprint p) (Digest.to_hex (Digest.string want))) then
    QCheck.Test.fail_reportf "%s: fingerprint differs from the oracle's md5" what;
  if digest_first then text ()

let random_cell rng (p : Problem.t) =
  let w = Routing_grid.width p.grid and h = Routing_grid.height p.grid in
  Point.make (Random.State.int rng w) (Random.State.int rng h)

let random_obstacle rng (p : Problem.t) =
  let map = Routing_grid.obstacles p.grid in
  let n = Obstacle_map.blocked_count map in
  if n = 0 then random_cell rng p
  else begin
    let k = Random.State.int rng n and seen = ref 0 and found = ref 0 in
    Obstacle_map.iter_blocked_index map (fun i ->
      if !seen = k then found := i;
      incr seen);
    Routing_grid.point_of_index p.grid !found
  end

let random_edit rng base (p : Problem.t) =
  match Random.State.int rng 6 with
  | 0 ->
    let valves = Array.of_list p.valves in
    let v = valves.(Random.State.int rng (Array.length valves)) in
    let d () = Random.State.int rng 9 - 4 in
    Problem.move_valve p v.Valve.id (Point.add v.Valve.position (Point.make (d ()) (d ())))
  | 1 -> Problem.add_obstacle p (random_cell rng p)
  | 2 -> Problem.remove_obstacle p (random_obstacle rng p)
  | 3 -> Problem.with_delta p (Random.State.int rng 5)
  | 4 ->
    let blocked = List.init (Random.State.int rng 41) (fun _ -> random_cell rng p) in
    Problem.with_faults p ~blocked ~dead_valves:[]
  | _ -> Ok base

let prop_slot_chains =
  QCheck.Test.make ~count:20 ~name:"render slots = oracle on interleaved edit chains"
    QCheck.(make ~print:string_of_int Gen.nat)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let bases = Lazy.force slot_problems in
      let current = Array.copy bases in
      (* A chain mostly stays on one problem, so its recent states are
         still in the slots, and now and then moves to another. *)
      let k = ref 0 in
      for step = 1 to 60 do
        if Random.State.int rng 3 = 0 then k := Random.State.int rng (Array.length bases);
        (match random_edit rng bases.(!k) current.(!k) with
         | Ok p -> current.(!k) <- p
         | Error _ -> ());
        check_render ~digest_first:(Random.State.bool rng)
          (Printf.sprintf "seed %d step %d" seed step) current.(!k)
      done;
      true)

(* A slot keeps its own copies of the caller's mutable inputs: a render
   after the caller changed its obstacle map or an activation sequence in
   place must show the change, and one after the change is undone must
   not. The problem takes a name no other test renders, so its first
   render writes a slot of its own rather than hitting an earlier one. *)
let test_slot_mutation () =
  let text = Codec_oracle.to_string (Lazy.force slot_problems).(0) ^ "name slot-mutation\n" in
  let p = Result.get_ok (Problem_io.of_string text) in
  let check what = check_render what p in
  check "fresh";
  let map = Routing_grid.obstacles p.grid in
  let cell = Point.make 20 20 in
  let blocked = Obstacle_map.blocked map cell in
  let flip () = if blocked then Obstacle_map.unblock map cell else Obstacle_map.block map cell in
  let unflip () = if blocked then Obstacle_map.block map cell else Obstacle_map.unblock map cell in
  flip ();
  check "obstacle map changed in place";
  unflip ();
  check "obstacle map restored";
  let seq = (List.hd p.valves).Valve.sequence in
  let old = seq.(0) in
  seq.(0) <- (if old = Activation.Open then Activation.Closed else Activation.Open);
  check "activation changed in place";
  seq.(0) <- old;
  check "activation restored"

(* Slots are per domain: renders in a second domain, interleaved with the
   first's, see only their own. *)
let test_slot_domains () =
  let problems = Lazy.force slot_problems in
  let edited k =
    Result.get_ok (Problem.with_delta problems.(k) (problems.(k).Problem.delta + 1))
  in
  let round () =
    Array.iteri
      (fun k p ->
        check_render "base" p;
        check_render "edit" (edited k))
      problems
  in
  round ();
  let other = Domain.spawn (fun () -> round (); round ()) in
  round ();
  Domain.join other;
  round ()

(* A slot reused for a small instance gives back a very large one's
   buffer (3.7 MB of text here); the texts on either side stay the
   oracle's. *)
let test_slot_large () =
  let big =
    Result.get_ok
      (Problem_io.of_string "name big\ngrid 400 400\nobstacle 2 2 397 397\nvalve 0 1 1 01\npin 0 5\n")
  in
  check_render "large" big;
  Array.iter
    (fun p ->
      check_render "small" p;
      check_render "small, edited" (Result.get_ok (Problem.with_delta p (p.Problem.delta + 1))))
    (Lazy.force slot_problems);
  check_render "large again" big

(* ---------- the JSON codec ---------- *)

module Json = Pacor_serve.Json

(* Bytes weighted towards the ones JSON escapes: quotes, backslashes and
   control bytes, beside the whole 0-255 range. *)
let gen_byte =
  QCheck.Gen.(
    frequency
      [ (3, char);
        (2, oneofl [ '"'; '\\'; '\n'; '\r'; '\t'; '\b'; '\012'; '\000'; '\031'; '\127'; '\255' ]) ])

let gen_json =
  QCheck.Gen.(
    let str = string_size ~gen:gen_byte (oneof [ int_range 0 16; int_range 0 4096 ]) in
    let leaf =
      oneof
        [ return Json.Null; map (fun b -> Json.Bool b) bool;
          map (fun i -> Json.Int i) (oneof [ int; oneofl [ min_int; max_int; 0; -1 ] ]);
          map (fun f -> Json.Float f)
            (oneof [ float; oneofl [ Float.nan; Float.infinity; Float.neg_infinity; -0.; 1e15 ] ]);
          map (fun s -> Json.String s) str ]
    in
    sized_size (int_range 0 3)
      (fix (fun self n ->
         if n = 0 then leaf
         else
           frequency
             [ (2, leaf);
               (1, map (fun l -> Json.List l) (list_size (int_range 0 4) (self (n - 1))));
               (1,
                map (fun l -> Json.Obj l)
                  (list_size (int_range 0 4) (pair str (self (n - 1))))) ])))

let prop_json_emitter =
  QCheck.Test.make ~count:300 ~name:"Json.to_string = oracle on strings of all 256 bytes"
    (QCheck.make gen_json) (fun v -> String.equal (Json.to_string v) (Json_oracle.to_string v))

(* Texts from fragments heavy in escapes, surrogate pairs (whole, split,
   unpaired, malformed) and structure, plus the emitter's own output,
   truncated and spliced; the parser must give the oracle's value or its
   error message. *)
let gen_json_text =
  QCheck.Gen.(
    let fragment =
      oneof
        [ oneofl
            [ "\""; "\\"; "\\u"; "\\ud83d"; "\\ude00"; "\\uD83D\\uDE00"; "\\ud800\\u0041";
              "\\udbff\\udfff"; "\\ud800\\uzz00"; "\\u12"; "\\uG000"; "\\x"; "\\n"; "\\/";
              "\\\""; "\\\\"; "abc"; "{"; "}"; "["; "]"; ":"; ","; "1"; "-2.5e3"; "1e999";
              "99999999999999999999"; "true"; "nul"; " "; "\n" ];
          string_size ~gen:gen_byte (int_range 0 8) ]
    in
    let spliced =
      let* v = gen_json and* cut = nat and* extra = list_size (int_range 0 3) fragment in
      let t = Json_oracle.to_string v in
      let k = if t = "" then 0 else cut mod (String.length t + 1) in
      let head = String.sub t 0 k ^ String.concat "" extra in
      oneofl [ t; head; head ^ String.sub t k (String.length t - k) ]
    in
    oneof
      [ map (fun l -> "\"" ^ String.concat "" l ^ "\"") (list_size (int_range 0 12) fragment);
        map (String.concat "") (list_size (int_range 0 12) fragment); spliced ])

let prop_json_parser =
  QCheck.Test.make ~count:1000 ~name:"Json.of_string = oracle on escape-heavy and malformed text"
    (QCheck.make ~print:(Printf.sprintf "%S") gen_json_text) (fun text ->
      match (Json.of_string text, Json_oracle.of_string text) with
      | Ok a, Ok b -> compare a b = 0 || QCheck.Test.fail_report "values differ"
      | Error a, Error b -> String.equal a b || QCheck.Test.fail_reportf "errors %S, oracle %S" a b
      | Ok _, Error e -> QCheck.Test.fail_reportf "accepted; the oracle: %s" e
      | Error e, Ok _ -> QCheck.Test.fail_reportf "refused (%s); the oracle accepts" e)

(* ---------- the parser ---------- *)

let test_parser_named () =
  List.iter
    (fun (name, p) ->
       let text = Codec_oracle.to_string p in
       if not (same_verdict text) then Alcotest.failf "%s: parsers disagree" name)
    (named_designs ())

let test_parser_corpus () =
  List.iter
    (fun (f, text) -> if not (same_verdict text) then Alcotest.failf "%s: parsers disagree" f)
    (Lazy.force corpus_texts)

(* Directives the oracle rejects or clamps: unknown words, wrong arity,
   oversized, non-positive and overflowing grids, integers in every
   syntax [int_of_string] accepts and some it does not. *)
let odd_lines =
  [| "frobnicate 1 2"; "grid 5"; "grid 4097 4096"; "grid 100000 100000"; "grid 0 5";
     "grid -3 4"; "grid 16777217 1"; "delta"; "delta 1 2"; "name";
     "name  spaced   out "; "pin +5 0"; "pin 0x1F 0"; "pin 1_0 0"; "pin 0b11 0o7";
     "pin - 3"; "pin 5- 3"; "pin 99999999999999999999 1"; "pin 4611686018427387903 1";
     "pin 4611686018427387904 1"; "pin -0 1"; "delta 007"; "delta 0u5"; "delta 1__2";
     "obstacle 0 0 1"; "obstacle 9 9 0 0"; "obstacle -5 -5 100 100";
     "valve 0 1 1"; "valve 0 1 1 01 extra"; "valve 0 1 1 01Z"; "cluster 3";
     "cluster 3 x 4"; "cluster 0 0 0"; "\tgrid 6 6"; "grid\t6 6"; "grid 6\t6";
     "\x00\xff\x01 raw \\ bytes"; "#"; "   # only a comment"; "pin 1 2 # c # d" |]

let mutate text (kind, a, b) =
  let lines = Array.of_list (String.split_on_char '\n' text) in
  let n = Array.length lines in
  let k = a mod n in
  let join () = String.concat "\n" (Array.to_list lines) in
  let set f =
    lines.(k) <- f lines.(k);
    join ()
  in
  (* The [b]-th space of a line, if it has one. *)
  let nth_space l =
    let spaces = List.filter (fun i -> l.[i] = ' ') (List.init (String.length l) Fun.id) in
    match spaces with [] -> None | _ -> Some (List.nth spaces (b mod List.length spaces))
  in
  let at_space f l = match nth_space l with None -> l | Some i -> f l i in
  let splice l i s = String.sub l 0 i ^ s ^ String.sub l (i + 1) (String.length l - i - 1) in
  (* Rewrite the [b]-th token of a line. *)
  let token f l =
    let toks = String.split_on_char ' ' l in
    let m = List.length toks in
    String.concat " " (List.mapi (fun i t -> if i = b mod m then f t else t) toks)
  in
  match kind mod 16 with
  | 0 -> set (at_space (fun l i -> splice l i "\t"))
  | 1 -> set (fun l -> "\t" ^ l ^ "\t ")
  | 2 -> set (fun l -> l ^ "\r")
  | 3 -> String.concat "\r\n" (Array.to_list lines)
  | 4 -> set (fun l -> l ^ " # trailing comment " ^ string_of_int b)
  | 5 -> set (at_space (fun l i -> splice l i "  "))
  | 6 -> set (fun l -> "  " ^ l ^ "   ")
  | 7 -> set (token (fun t -> "+" ^ t))
  | 8 ->
    set
      (token (fun t ->
         match int_of_string_opt t with Some v -> Printf.sprintf "0x%X" v | None -> t))
  | 9 ->
    set
      (token (fun t ->
         let n = String.length t in
         if n > 1 then String.sub t 0 1 ^ "_" ^ String.sub t 1 (n - 1) else t))
  | 10 -> set (fun l -> String.sub l 0 (b mod (String.length l + 1)))
  | 11 -> String.sub text 0 (b mod (String.length text + 1))
  | 12 -> set (fun l -> odd_lines.(b mod Array.length odd_lines) ^ "\n" ^ l)
  | 13 -> set (fun _ -> odd_lines.(b mod Array.length odd_lines))
  | 14 -> set (fun l -> "#" ^ l)
  | _ -> set (fun l -> l ^ "\n" ^ l)

let small_problem_text seed =
  let spec =
    { Synthetic.name = "codec-parse"; width = 14; height = 12; obstacle_cells = 12;
      lm_cluster_sizes = [ 2; 3 ]; singleton_valves = 2; pin_count = 14;
      seed = Int64.of_int seed; delta = 1 }
  in
  Codec_oracle.to_string (Synthetic.generate_exn spec)

let base_texts =
  lazy
    (Array.of_list
       (List.map small_problem_text [ 1; 2; 3 ] @ List.map snd (Lazy.force corpus_texts)))

let gen_mutated =
  QCheck.(
    pair small_nat
      (list_of_size (QCheck.Gen.int_range 1 5)
         (triple (int_range 0 15) small_nat (int_range 0 1000))))

let mutated_text (base, muts) =
  let texts = Lazy.force base_texts in
  List.fold_left mutate texts.(base mod Array.length texts) muts

let prop_parser_mutated =
  QCheck.Test.make ~count:1000 ~name:"parser = oracle on mutated texts"
    (QCheck.set_print (fun m -> Printf.sprintf "%S" (mutated_text m)) gen_mutated)
    (fun m -> same_verdict (mutated_text m))

let prop_parser_bytes =
  QCheck.Test.make ~count:500 ~name:"parser = oracle on arbitrary bytes"
    QCheck.(string_gen_of_size (Gen.int_range 0 200) Gen.char)
    (fun s -> same_verdict ("grid 8 8\n" ^ s) && same_verdict s)

(* [Problem.create] refuses names the text cannot carry; a name the
   parser has just read is always one it can, so no text that parsed
   before that check is refused now. *)
let prop_parsed_names_accepted =
  QCheck.Test.make ~count:500 ~name:"every name the parser reads is accepted"
    QCheck.(
      string_gen_of_size (Gen.int_range 0 12)
        (Gen.oneofl [ 'a'; 'Z'; '-'; ' '; '\t'; '\r'; '\012'; '=' ]))
    (fun name ->
      let text = "name " ^ name ^ "\ngrid 4 4\nvalve 0 1 1 01\npin 0 1\n" in
      match Problem_io.of_string text with
      | Error e -> QCheck.Test.fail_reportf "%S refused: %s" name e
      | Ok p -> (
        match Problem_io.of_string (Problem_io.to_string p) with
        | Ok p' -> String.equal p.Problem.name p'.Problem.name
        | Error e -> QCheck.Test.fail_reportf "%S: reparse refused: %s" p.Problem.name e))

let () =
  Alcotest.run "codec"
    [ ( "writer",
        [ Alcotest.test_case "named designs = oracle" `Quick test_writer_named;
          Alcotest.test_case "corpus = oracle" `Quick test_writer_corpus;
          QCheck_alcotest.to_alcotest prop_writer_synthetic;
          QCheck_alcotest.to_alcotest prop_writer_fpva;
          QCheck_alcotest.to_alcotest prop_writer_bitmap;
          QCheck_alcotest.to_alcotest prop_fingerprint_in_place;
          QCheck_alcotest.to_alcotest prop_slot_chains;
          Alcotest.test_case "slots copy mutable inputs" `Quick test_slot_mutation;
          Alcotest.test_case "slots give back large buffers" `Quick test_slot_large;
          Alcotest.test_case "slots per domain" `Quick test_slot_domains ] );
      ( "parser",
        [ Alcotest.test_case "named designs = oracle" `Quick test_parser_named;
          Alcotest.test_case "corpus = oracle" `Quick test_parser_corpus;
          QCheck_alcotest.to_alcotest prop_parser_mutated;
          QCheck_alcotest.to_alcotest prop_parser_bytes;
          QCheck_alcotest.to_alcotest prop_parsed_names_accepted ] );
      ( "json",
        [ QCheck_alcotest.to_alcotest prop_json_emitter;
          QCheck_alcotest.to_alcotest prop_json_parser ] ) ]
