(* The serving layer.

   Contracts under test: the hand-rolled JSON round-trips; the LRU evicts
   least-recently-used and promotes on hit; the canonical problem rendering
   gives construction-order-independent fingerprints that survive a parse
   round-trip; the daemon handler answers every line (malformed, starved,
   impossible edits included) without crashing; cache hits replay
   byte-identical results; and a delta request is never worse than routing
   the mutated problem from scratch — byte-identical to the old solution
   when its dirty set is empty. Plus: the monotonic clock never steps
   backwards. *)

open Pacor_serve
module Synthetic = Pacor_designs.Synthetic

let json_t = Alcotest.testable (Fmt.of_to_string Json.to_string) ( = )

(* ---------- Json ---------- *)

let test_json_basics () =
  let cases =
    [
      ("null", Json.Null);
      ("true", Json.Bool true);
      ("-42", Json.Int (-42));
      ("3.5", Json.Float 3.5);
      ({|"a\"b\\c\nd"|}, Json.String "a\"b\\c\nd");
      ("[1,[],{}]", Json.List [ Json.Int 1; Json.List []; Json.Obj [] ]);
      ( {|{"a":1,"b":[true,null]}|},
        Json.Obj [ ("a", Json.Int 1); ("b", Json.List [ Json.Bool true; Json.Null ]) ] );
    ]
  in
  List.iter
    (fun (text, value) ->
       match Json.of_string text with
       | Ok v -> Alcotest.check json_t text value v
       | Error e -> Alcotest.failf "%s: %s" text e)
    cases;
  (* Unicode escapes decode to UTF-8 (including a surrogate pair). *)
  (match Json.of_string {|"é😀"|} with
   | Ok (Json.String s) ->
     Alcotest.(check string) "utf8" "\xc3\xa9\xf0\x9f\x98\x80" s
   | Ok _ | Error _ -> Alcotest.fail "unicode escape");
  (* Malformed inputs are errors, never exceptions. *)
  List.iter
    (fun bad ->
       match Json.of_string bad with
       | Error _ -> ()
       | Ok v -> Alcotest.failf "%S parsed to %s" bad (Json.to_string v))
    [ ""; "{"; "[1,"; "tru"; "{\"a\" 1}"; "\"unterminated"; "1 2"; "nan" ]

let json_gen =
  let open QCheck.Gen in
  let scalar =
    oneof
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun i -> Json.Int i) (int_range (-1000000) 1000000);
        (* Quarter-integer floats round-trip exactly through %.12g. *)
        map (fun i -> Json.Float (float_of_int i /. 4.0)) (int_range (-10000) 10000);
        map (fun s -> Json.String s) (string_size ~gen:printable (int_range 0 12));
      ]
  in
  let rec value depth =
    if depth = 0 then scalar
    else
      frequency
        [
          (3, scalar);
          (1, map (fun l -> Json.List l) (list_size (int_range 0 4) (value (depth - 1))));
          ( 1,
            map
              (fun kvs -> Json.Obj kvs)
              (list_size (int_range 0 4)
                 (pair (string_size ~gen:printable (int_range 0 6)) (value (depth - 1))))
          );
        ]
  in
  value 3

let prop_json_roundtrip =
  QCheck.Test.make ~name:"json round-trips" ~count:500
    (QCheck.make ~print:Json.to_string json_gen)
    (fun v ->
       match Json.of_string (Json.to_string v) with
       | Ok v' -> v = v'
       | Error e -> QCheck.Test.fail_reportf "reparse failed: %s" e)

(* ---------- Lru ---------- *)

let test_lru () =
  let c = Lru.create ~capacity:3 in
  Lru.add c "a" 1;
  Lru.add c "b" 2;
  Lru.add c "c" 3;
  (* Touch "a" so "b" is now least-recently-used. *)
  Alcotest.(check (option int)) "hit a" (Some 1) (Lru.find c "a");
  Lru.add c "d" 4;
  Alcotest.(check (option int)) "b evicted" None (Lru.find c "b");
  Alcotest.(check (option int)) "a kept" (Some 1) (Lru.find c "a");
  Alcotest.(check (option int)) "c kept" (Some 3) (Lru.find c "c");
  Alcotest.(check (option int)) "d kept" (Some 4) (Lru.find c "d");
  Alcotest.(check int) "length" 3 (Lru.length c);
  Alcotest.(check int) "evictions" 1 (Lru.evictions c);
  (* Replacement promotes rather than duplicating. *)
  Lru.add c "c" 33;
  Lru.add c "e" 5;
  Alcotest.(check (option int)) "c replaced" (Some 33) (Lru.find c "c");
  Alcotest.(check int) "still at capacity" 3 (Lru.length c)

let prop_lru_capacity =
  QCheck.Test.make ~name:"lru never exceeds capacity, keeps most recent" ~count:200
    QCheck.(pair (int_range 1 8) (small_list (int_range 0 20)))
    (fun (cap, keys) ->
       let c = Lru.create ~capacity:cap in
       List.iter (fun k -> Lru.add c (string_of_int k) k) keys;
       if Lru.length c > cap then QCheck.Test.fail_reportf "over capacity";
       (* The most recently added key is always present. *)
       (match List.rev keys with
        | [] -> ()
        | last :: _ ->
          if Lru.find c (string_of_int last) = None then
            QCheck.Test.fail_reportf "most recent key evicted");
       true)

(* ---------- canonical rendering and fingerprints ---------- *)

let synthetic_spec ?(delta = 2) seed =
  {
    Synthetic.name = "serve-q";
    width = 24;
    height = 16;
    obstacle_cells = 10;
    lm_cluster_sizes = [ 2; 2 ];
    singleton_valves = 3;
    pin_count = 12;
    seed = Int64.of_int seed;
    delta;
  }

let test_fingerprint_canonical () =
  let p = Synthetic.generate_exn (synthetic_spec 7) in
  (* Same instance re-created with every list reversed. *)
  let open Pacor in
  let p' =
    Problem.create_exn ~name:p.Problem.name ~rules:p.Problem.rules ~grid:p.Problem.grid
      ~valves:(List.rev p.Problem.valves)
      ~lm_clusters:(List.rev p.Problem.lm_clusters)
      ~pins:(List.rev p.Problem.pins) ~delta:p.Problem.delta ()
  in
  Alcotest.(check string) "order-independent" (Problem_io.fingerprint p)
    (Problem_io.fingerprint p');
  Alcotest.(check string) "to_string canonical" (Problem_io.to_string p)
    (Problem_io.to_string p')

let prop_fingerprint_roundtrip =
  QCheck.Test.make ~name:"of_string (to_string p) preserves the fingerprint" ~count:30
    QCheck.(int_range 1 10_000)
    (fun seed ->
       match Synthetic.generate (synthetic_spec seed) with
       | Error _ -> true (* an unroutable spec is the generator's business *)
       | Ok p -> (
         let text = Pacor.Problem_io.to_string p in
         match Pacor.Problem_io.of_string text with
         | Error e -> QCheck.Test.fail_reportf "seed %d: reparse failed: %s" seed e
         | Ok p' ->
           let fp = Pacor.Problem_io.fingerprint p in
           let fp' = Pacor.Problem_io.fingerprint p' in
           if fp <> fp' then
             QCheck.Test.fail_reportf "seed %d: fingerprint drifted: %s vs %s" seed fp
               fp';
           true))

(* ---------- the monotonic clock ---------- *)

let test_clock_monotonic () =
  let prev = ref (Pacor_route.Clock.now_mono ()) in
  for _ = 1 to 10_000 do
    let t = Pacor_route.Clock.now_mono () in
    if t < !prev then Alcotest.failf "clock stepped back: %.9f after %.9f" t !prev;
    prev := t
  done

(* ---------- the daemon handler ---------- *)

let inst_text =
  "name serve-test\n\
   grid 20 12\n\
   delta 1\n\
   obstacle 15 2 15 2\n\
   valve 1 4 4 1010\n\
   valve 2 8 4 1010\n\
   valve 3 12 7 0110\n\
   pin 0 3\n\
   pin 0 5\n\
   pin 19 4\n\
   pin 19 8\n\
   pin 10 0\n"

let req fields = Json.to_string (Json.Obj fields)

let handle_ok server line =
  let out = Server.handle server line in
  match Json.of_string out.Server.line with
  | Error e -> Alcotest.failf "unparseable response %s: %s" out.Server.line e
  | Ok j -> (
    match Option.bind (Json.member "ok" j) Json.bool_opt with
    | Some true -> (out.Server.line, j)
    | _ -> Alcotest.failf "expected ok:true, got %s" out.Server.line)

let handle_err server line =
  let out = Server.handle server line in
  match Json.of_string out.Server.line with
  | Error e -> Alcotest.failf "unparseable response %s: %s" out.Server.line e
  | Ok j -> (
    match Option.bind (Json.member "ok" j) Json.bool_opt with
    | Some false ->
      Option.get
        (Option.bind
           (Option.bind (Json.member "error" j) (Json.member "class"))
           Json.string_opt)
    | _ -> Alcotest.failf "expected ok:false, got %s" out.Server.line)

let result_int j key =
  Option.get (Option.bind (Option.bind (Json.member "result" j) (Json.member key)) Json.int_opt)

let result_str j key =
  Option.get
    (Option.bind (Option.bind (Json.member "result" j) (Json.member key)) Json.string_opt)

let result_of line =
  (* The raw result substring: everything after the first "result": up to
     the closing brace — exactly what a shell client would cut out. *)
  let marker = "\"result\":" in
  let rec find i =
    if i + String.length marker > String.length line then
      Alcotest.failf "no result field in %s" line
    else if String.sub line i (String.length marker) = marker then
      String.sub line
        (i + String.length marker)
        (String.length line - i - String.length marker - 1)
    else find (i + 1)
  in
  find 0

let test_handler_trace () =
  let server = Server.create ~cache_capacity:4 () in
  (* ping *)
  let _, j = handle_ok server (req [ ("id", Json.Int 0); ("op", Json.String "ping") ]) in
  Alcotest.(check bool) "pong" true
    (Option.get
       (Option.bind (Option.bind (Json.member "result" j) (Json.member "pong"))
          Json.bool_opt));
  (* route, then the identical request again: a byte-identical cache hit *)
  let route_req =
    req
      [
        ("id", Json.Int 1);
        ("op", Json.String "route");
        ("problem", Json.String inst_text);
        ("session", Json.String "s");
      ]
  in
  let line1, j1 = handle_ok server route_req in
  let line2, j2 = handle_ok server route_req in
  Alcotest.(check bool) "first not cached" false
    (Option.get (Option.bind (Json.member "cached" j1) Json.bool_opt));
  Alcotest.(check bool) "second cached" true
    (Option.get (Option.bind (Json.member "cached" j2) Json.bool_opt));
  Alcotest.(check string) "cache hit byte-identical" (result_of line1) (result_of line2);
  let routed0 = result_int j1 "routed_valves" in
  let length0 = result_int j1 "total_length" in
  Alcotest.(check int) "all valves routed" 3 routed0;
  (* remove_obstacle: empty dirty set, byte-identical solution *)
  let _, jr =
    handle_ok server
      (req
         [
           ("id", Json.Int 2);
           ("op", Json.String "remove_obstacle");
           ("session", Json.String "s");
           ("x", Json.Int 15);
           ("y", Json.Int 2);
         ])
  in
  Alcotest.(check json_t) "empty dirty set" (Json.List [])
    (Option.get (Option.bind (Json.member "result" jr) (Json.member "dirty")));
  Alcotest.(check int) "length unchanged" length0 (result_int jr "total_length");
  Alcotest.(check int) "still routed" routed0 (result_int jr "routed_valves");
  (* move_valve re-routes only the owner cluster and stays valid *)
  let _, jm =
    handle_ok server
      (req
         [
           ("id", Json.Int 3);
           ("op", Json.String "move_valve");
           ("session", Json.String "s");
           ("valve", Json.Int 2);
           ("x", Json.Int 9);
           ("y", Json.Int 5);
         ])
  in
  Alcotest.(check string) "moved result valid" "true"
    (match Option.bind (Json.member "result" jm) (Json.member "valid") with
     | Some (Json.Bool b) -> string_of_bool b
     | _ -> "missing");
  Alcotest.(check int) "still fully routed" 3 (result_int jm "routed_valves");
  (* the mutated fingerprint matches an independent mutation *)
  (match Pacor.Problem_io.of_string inst_text with
   | Error e -> Alcotest.fail e
   | Ok p ->
     let p = Result.get_ok (Pacor.Problem.remove_obstacle p (Pacor_geom.Point.make 15 2)) in
     let p' = Result.get_ok (Pacor.Problem.move_valve p 2 (Pacor_geom.Point.make 9 5)) in
     Alcotest.(check string) "fingerprint tracks the edit"
       (Pacor.Problem_io.fingerprint p')
       (result_str jm "fingerprint"));
  (* errors: malformed line, unknown op, unknown session, illegal edit *)
  Alcotest.(check string) "malformed" "parse" (handle_err server "{nope");
  Alcotest.(check string) "unknown op" "parse"
    (handle_err server (req [ ("op", Json.String "frobnicate") ]));
  Alcotest.(check string) "unknown session" "validation"
    (handle_err server
       (req
          [
            ("op", Json.String "get"); ("session", Json.String "nonesuch");
          ]));
  Alcotest.(check string) "illegal edit" "validation"
    (handle_err server
       (req
          [
            ("op", Json.String "move_valve");
            ("session", Json.String "s");
            ("valve", Json.Int 99);
            ("x", Json.Int 1);
            ("y", Json.Int 1);
          ]));
  (* the session survived every error *)
  let _, jg =
    handle_ok server (req [ ("op", Json.String "get"); ("session", Json.String "s") ])
  in
  Alcotest.(check int) "session intact" 3 (result_int jg "routed_valves");
  (* stats and shutdown *)
  let _, js = handle_ok server (req [ ("op", Json.String "stats") ]) in
  Alcotest.(check int) "one session" 1 (result_int js "sessions");
  let out = Server.handle server (req [ ("op", Json.String "shutdown") ]) in
  Alcotest.(check bool) "shutdown stops" true out.Server.stop

let budget_inst =
  (* Distinct name => distinct fingerprint, so the cache cannot answer. *)
  String.concat "" [ "name starved\n"; String.concat "" (List.tl (String.split_on_char '\n' inst_text |> List.map (fun l -> l ^ "\n")) |> List.filter (fun l -> l <> "\n")) ]

let test_budget_classification () =
  let server = Server.create () in
  let limits = Json.Obj [ ("max_expansions", Json.Int 1) ] in
  (* Non-strict: degraded but ok, with the tripped limit named. *)
  let _, j =
    handle_ok server
      (req
         [
           ("id", Json.Int 1);
           ("op", Json.String "route");
           ("problem", Json.String budget_inst);
           ("limits", limits);
         ])
  in
  Alcotest.(check string) "budget reported" "expansions" (result_str j "budget_exhausted");
  (* Strict: the same request is an error of class budget. *)
  Alcotest.(check string) "strict is budget class" "budget"
    (handle_err server
       (req
          [
            ("id", Json.Int 2);
            ("op", Json.String "route");
            ("problem", Json.String budget_inst);
            ("limits", limits);
            ("strict", Json.Bool true);
          ]))

(* ---------- line reassembly under torn chunking ---------- *)

(* Requests whose response bytes are a pure function of daemon state — no
   wall-clock fields — so two fresh daemons fed the same lines must answer
   byte-identically. Unicode and escape-heavy ids make sure a chunk split
   can land inside a UTF-8 sequence or a JSON escape. *)
let deterministic_line_gen =
  let open QCheck.Gen in
  let spicy_id =
    oneofl
      [ Json.String "é😀torn"; Json.String "a\"b\\c\nd"; Json.Int 7;
        Json.String "plain"; Json.Null ]
  in
  oneof
    [
      map (fun id -> req [ ("id", id); ("op", Json.String "ping") ]) spicy_id;
      map
        (fun id ->
           req
             [ ("id", id); ("op", Json.String "get");
               ("session", Json.String "nonesuch") ])
        spicy_id;
      map (fun id -> req [ ("id", id); ("op", Json.String "frobnicate") ]) spicy_id;
      (* line noise: must cost exactly one parse error *)
      oneofl [ "{nope"; "[1,2"; "!!!garbage!!!"; "\"é😀" ];
    ]

let prop_torn_chunking =
  QCheck.Test.make
    ~name:"trace split at random byte boundaries answers byte-identically"
    ~count:100
    (QCheck.make
       ~print:(fun (lines, sizes) ->
         String.concat "\n" lines ^ Printf.sprintf " / chunks %s"
           (String.concat "," (List.map string_of_int sizes)))
       QCheck.Gen.(
         pair
           (list_size (int_range 1 12) deterministic_line_gen)
           (list_size (int_range 1 64) (int_range 1 5))))
    (fun (lines, sizes) ->
       let whole = Server.create () in
       let chunked = Server.create () in
       let expected =
         List.map (fun l -> (Server.handle whole l).Server.line) lines
       in
       (* The same trace as one byte stream, cut at arbitrary boundaries —
          including mid-UTF-8 and mid-escape — through the daemon's own
          line reassembly. *)
       let stream = String.concat "" (List.map (fun l -> l ^ "\n") lines) in
       let lbuf = Linebuf.create () in
       let got = ref [] in
       let pos = ref 0 in
       let cycle = Array.of_list sizes in
       let ci = ref 0 in
       while !pos < String.length stream do
         let n = min cycle.(!ci mod Array.length cycle) (String.length stream - !pos) in
         incr ci;
         List.iter
           (function
             | Linebuf.Line l ->
               got := (Server.handle chunked l).Server.line :: !got
             | Linebuf.Overflow -> QCheck.Test.fail_reportf "unexpected overflow")
           (Linebuf.feed_string lbuf (String.sub stream !pos n));
         pos := !pos + n
       done;
       let got = List.rev !got in
       if List.length got <> List.length expected then
         QCheck.Test.fail_reportf "reassembled %d lines, expected %d"
           (List.length got) (List.length expected);
       List.iter2
         (fun e g ->
            if e <> g then
              QCheck.Test.fail_reportf "response drifted:\n  whole:   %s\n  chunked: %s" e g)
         expected got;
       true)

let test_linebuf_oversized () =
  let lb = Linebuf.create ~max_line:32 () in
  (* A line that crosses the cap fires exactly one Overflow, at the moment
     of crossing, and the rest of it is discarded silently. *)
  let events = Linebuf.feed_string lb (String.make 100 'x') in
  Alcotest.(check int) "one overflow" 1
    (List.length (List.filter (fun e -> e = Linebuf.Overflow) events));
  Alcotest.(check int) "nothing buffered while discarding" 0 (Linebuf.pending lb);
  (* More of the same oversized line: no second event. *)
  Alcotest.(check int) "still one overflow" 0
    (List.length (Linebuf.feed_string lb (String.make 50 'y')));
  (* The newline ends discard mode; the next line is delivered intact. *)
  let events = Linebuf.feed_string lb "\nhello\n" in
  Alcotest.(check bool) "recovers after newline" true
    (events = [ Linebuf.Line "hello" ]);
  (* An exactly-at-cap line still fits. *)
  let line = String.make 32 'z' in
  Alcotest.(check bool) "cap-sized line fits" true
    (Linebuf.feed_string lb (line ^ "\n") = [ Linebuf.Line line ])

let test_linebuf_garbage_flood () =
  let cap = 128 in
  let lb = Linebuf.create ~max_line:cap () in
  let overflows = ref 0 in
  (* A megabyte of newline-free garbage in ragged chunks: pending memory
     must never pass the cap and the whole flood costs one Overflow. *)
  for i = 0 to 4095 do
    let chunk = String.make (17 + (i mod 13)) (Char.chr (33 + (i mod 90))) in
    List.iter
      (function
        | Linebuf.Overflow -> incr overflows
        | Linebuf.Line _ -> Alcotest.fail "no newline was ever sent")
      (Linebuf.feed_string lb chunk);
    if Linebuf.pending lb > cap then Alcotest.fail "pending exceeded the cap"
  done;
  Alcotest.(check int) "one overflow for the whole flood" 1 !overflows;
  Alcotest.(check bool) "high-water bounded" true (Linebuf.high_water lb <= cap)

(* ---------- the session journal ---------- *)

let with_temp_journal f =
  let path = Filename.temp_file "pacor-test" ".journal" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let journal_exn path =
  match Journal.open_ ~path with
  | Ok j -> j
  | Error e -> Alcotest.failf "journal open: %s" e

let live_t = Alcotest.(list (triple string int string))

let test_journal_replay () =
  with_temp_journal (fun path ->
      let j = journal_exn path in
      Journal.record_bind j ~session:"a" ~revision:0 ~problem_text:inst_text;
      Journal.record_bind j ~session:"b" ~revision:0 ~problem_text:inst_text;
      Journal.record_bind j ~session:"a" ~revision:1 ~problem_text:(inst_text ^ "pin 1 0\n");
      Journal.record_close j ~session:"b";
      Alcotest.check live_t "last record per session wins"
        [ ("a", 1, inst_text ^ "pin 1 0\n") ]
        (Journal.live j);
      Journal.close j;
      (* A fresh open replays the same live set from disk. *)
      let j2 = journal_exn path in
      Alcotest.check live_t "replayed from disk"
        [ ("a", 1, inst_text ^ "pin 1 0\n") ]
        (Journal.live j2);
      Journal.close j2)

let test_journal_torn_tail () =
  with_temp_journal (fun path ->
      let j = journal_exn path in
      Journal.record_bind j ~session:"a" ~revision:0 ~problem_text:inst_text;
      Journal.record_bind j ~session:"b" ~revision:2 ~problem_text:inst_text;
      Journal.close j;
      (* Simulate a crash mid-append: a torn, newline-less final record. *)
      let oc = open_out_gen [ Open_append ] 0o600 path in
      output_string oc "{\"v\":1,\"op\":\"bind\",\"session\":\"c\",\"rev";
      close_out oc;
      let j2 = journal_exn path in
      Alcotest.check live_t "torn tail dropped, prefix intact"
        [ ("a", 0, inst_text); ("b", 2, inst_text) ]
        (Journal.live j2);
      (* The journal stays appendable after the torn tail. *)
      Journal.record_bind j2 ~session:"c" ~revision:0 ~problem_text:inst_text;
      Journal.close j2;
      let j3 = journal_exn path in
      Alcotest.(check int) "new record survives" 3 (List.length (Journal.live j3));
      Journal.close j3)

let test_journal_compaction () =
  with_temp_journal (fun path ->
      let j = journal_exn path in
      (* One live session rebound many times: history >> live set. *)
      for r = 0 to 99 do
        Journal.record_bind j ~session:"s" ~revision:r ~problem_text:inst_text
      done;
      let before = (Unix.stat path).Unix.st_size in
      Journal.maybe_compact j;
      let after = (Unix.stat path).Unix.st_size in
      Alcotest.(check bool) "compaction ran" true (Journal.compactions j >= 1);
      Alcotest.(check bool) "file shrank" true (after < before);
      Alcotest.check live_t "live set preserved" [ ("s", 99, inst_text) ]
        (Journal.live j);
      Journal.close j;
      let j2 = journal_exn path in
      Alcotest.check live_t "compacted file replays" [ ("s", 99, inst_text) ]
        (Journal.live j2);
      Journal.close j2)

let test_recover () =
  with_temp_journal (fun path ->
      (* Daemon A journals a session through a delta... *)
      let ja = journal_exn path in
      let a = Server.create ~journal:ja () in
      let _ =
        handle_ok a
          (req
             [ ("id", Json.Int 1); ("op", Json.String "route");
               ("problem", Json.String inst_text); ("session", Json.String "s") ])
      in
      let _, jd =
        handle_ok a
          (req
             [ ("id", Json.Int 2); ("op", Json.String "set_delta");
               ("session", Json.String "s"); ("delta", Json.Int 2) ])
      in
      let fp_after_delta = result_str jd "fingerprint" in
      Journal.close ja;
      (* ...daemon B (a restart after kill -9) recovers it from the path. *)
      let jb = journal_exn path in
      let b = Server.create ~journal:jb () in
      Alcotest.(check int) "one session recovered" 1 (Server.recover b);
      let _, jg =
        handle_ok b (req [ ("op", Json.String "get"); ("session", Json.String "s") ])
      in
      Alcotest.(check string) "recovered at the delta'd problem" fp_after_delta
        (result_str jg "fingerprint");
      Alcotest.(check int) "recovered revision" 1 (result_int jg "revision");
      Journal.close jb)

(* ---------- the retry replay cache ---------- *)

let test_replay_cache () =
  let server = Server.create () in
  let _ =
    handle_ok server
      (req
         [ ("id", Json.Int 1); ("op", Json.String "route");
           ("problem", Json.String inst_text); ("session", Json.String "s") ])
  in
  let delta_fields d =
    [ ("id", Json.Int 2); ("op", Json.String "set_delta");
      ("session", Json.String "s"); ("delta", Json.Int d) ]
  in
  let first, _ = handle_ok server (req (delta_fields 2)) in
  (* The client lost the response and re-sends with retry:true: the daemon
     replays the stored bytes instead of executing the delta twice. *)
  let replayed, _ =
    handle_ok server (req (delta_fields 2 @ [ ("retry", Json.Bool true) ]))
  in
  Alcotest.(check string) "replay is byte-identical" first replayed;
  let _, jg =
    handle_ok server (req [ ("op", Json.String "get"); ("session", Json.String "s") ])
  in
  Alcotest.(check int) "delta applied exactly once" 1 (result_int jg "revision");
  (* Without the retry flag the same id executes normally. *)
  let _ = handle_ok server (req (delta_fields 1)) in
  let _, jg2 =
    handle_ok server (req [ ("op", Json.String "get"); ("session", Json.String "s") ])
  in
  Alcotest.(check int) "plain re-send executes" 2 (result_int jg2 "revision");
  (* A retry for an id the daemon never saw executes normally too. *)
  let _, jp =
    handle_ok server
      (req [ ("id", Json.Int 99); ("op", Json.String "ping"); ("retry", Json.Bool true) ])
  in
  Alcotest.(check bool) "unknown retry id executes" true
    (Option.get
       (Option.bind (Option.bind (Json.member "result" jp) (Json.member "pong"))
          Json.bool_opt))

(* ---------- the serve loop under overload (live socket) ---------- *)

let read_line_ic ic = try Some (input_line ic) with End_of_file -> None

let error_class_of line =
  match Json.of_string line with
  | Ok j ->
    Option.value ~default:"?"
      (Option.bind
         (Option.bind (Json.member "error" j) (Json.member "class"))
         Json.string_opt)
  | Error _ -> "?"

let test_serve_loop_overload () =
  let listen_fd, port = Server.listen ~port:0 in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
    (* The daemon, capped tight: 2 connections, 256-byte lines. *)
    let t = Server.create () in
    (try Server.serve_loop ~stdio:false ~listen_fd ~max_conns:2 ~max_line:256 t
     with _ -> ());
    Stdlib.exit 0
  | child ->
    Unix.close listen_fd;
    let connect () =
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      (fd, Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)
    in
    let _, ic_a, oc_a = connect () in
    (* Oversized line: one parse error, and the connection stays usable. *)
    output_string oc_a (String.make 4096 'x');
    output_string oc_a "\n";
    flush oc_a;
    (match read_line_ic ic_a with
     | Some l -> Alcotest.(check string) "oversized is parse-class" "parse" (error_class_of l)
     | None -> Alcotest.fail "no response to the oversized line");
    output_string oc_a "{\"id\":1,\"op\":\"ping\"}\n";
    flush oc_a;
    (match read_line_ic ic_a with
     | Some l ->
       Alcotest.(check bool) "connection survived the flood" true
         (match Json.of_string l with
          | Ok j -> Option.bind (Json.member "ok" j) Json.bool_opt = Some true
          | Error _ -> false)
     | None -> Alcotest.fail "no response after the oversized line");
    (* Fill the connection cap, then one more: a single busy line, then EOF. *)
    let _, ic_b, oc_b = connect () in
    output_string oc_b "{\"id\":2,\"op\":\"ping\"}\n";
    flush oc_b;
    ignore (read_line_ic ic_b);
    let _, ic_c, _ = connect () in
    (match read_line_ic ic_c with
     | Some l -> Alcotest.(check string) "third connection is busy-class" "busy" (error_class_of l)
     | None -> Alcotest.fail "no busy line on the excess connection");
    Alcotest.(check (option string)) "busy connection is closed" None
      (read_line_ic ic_c);
    (* Shut the daemon down and reap it. *)
    output_string oc_a "{\"op\":\"shutdown\"}\n";
    flush oc_a;
    (match Unix.waitpid [] child with
     | _, Unix.WEXITED 0 -> ()
     | _, _ -> Alcotest.fail "daemon exited abnormally")

(* ---------- delta equivalence against from-scratch routing ---------- *)

let free_cells (p : Pacor.Problem.t) =
  let grid = p.Pacor.Problem.grid in
  let taken =
    List.fold_left
      (fun acc (v : Pacor_valve.Valve.t) -> Pacor_geom.Point.Set.add v.position acc)
      (Pacor_geom.Point.Set.of_list p.Pacor.Problem.pins)
      p.Pacor.Problem.valves
  in
  let acc = ref [] in
  for y = 1 to Pacor_grid.Routing_grid.height grid - 2 do
    for x = 1 to Pacor_grid.Routing_grid.width grid - 2 do
      let pt = Pacor_geom.Point.make x y in
      if
        Pacor_grid.Routing_grid.free grid pt && not (Pacor_geom.Point.Set.mem pt taken)
      then acc := pt :: !acc
    done
  done;
  List.rev !acc

let blocked_cells (p : Pacor.Problem.t) =
  let acc = ref [] in
  Pacor_grid.Obstacle_map.iter_blocked
    (Pacor_grid.Routing_grid.obstacles p.Pacor.Problem.grid)
    (fun pt -> acc := pt :: !acc);
  List.sort Pacor_geom.Point.compare !acc

let prop_delta_never_worse =
  QCheck.Test.make
    ~name:"delta result never worse than scratch; byte-identical on empty dirty set"
    ~count:25
    QCheck.(pair (int_range 1 10_000) (int_range 0 3))
    (fun (seed, kind) ->
       match Synthetic.generate (synthetic_spec seed) with
       | Error _ -> true
       | Ok p -> (
         let server = Server.create () in
         let text = Pacor.Problem_io.to_string p in
         let route_line, route_j =
           handle_ok server
             (req
                [
                  ("op", Json.String "route");
                  ("problem", Json.String text);
                  ("session", Json.String "q");
                ])
         in
         ignore route_line;
         let length0 = result_int route_j "total_length" in
         let pick l k = List.nth l (k mod List.length l) in
         (* One random edit, mirrored locally so scratch has the same
            mutated problem. *)
         let delta_req, mutated =
           match kind with
           | 0 ->
             let v = pick p.Pacor.Problem.valves (seed mod 97) in
             let dest = pick (free_cells p) (seed * 7) in
             ( req
                 [
                   ("op", Json.String "move_valve");
                   ("session", Json.String "q");
                   ("valve", Json.Int v.Pacor_valve.Valve.id);
                   ("x", Json.Int dest.Pacor_geom.Point.x);
                   ("y", Json.Int dest.Pacor_geom.Point.y);
                 ],
               Pacor.Problem.move_valve p v.Pacor_valve.Valve.id dest )
           | 1 ->
             let dest = pick (free_cells p) (seed * 13) in
             ( req
                 [
                   ("op", Json.String "add_obstacle");
                   ("session", Json.String "q");
                   ("x", Json.Int dest.Pacor_geom.Point.x);
                   ("y", Json.Int dest.Pacor_geom.Point.y);
                 ],
               Pacor.Problem.add_obstacle p dest )
           | 2 -> (
             match blocked_cells p with
             | [] ->
               ( req [ ("op", Json.String "ping") ],
                 Error "no obstacle to remove" )
             | obs ->
               let dest = pick obs (seed * 3) in
               ( req
                   [
                     ("op", Json.String "remove_obstacle");
                     ("session", Json.String "q");
                     ("x", Json.Int dest.Pacor_geom.Point.x);
                     ("y", Json.Int dest.Pacor_geom.Point.y);
                   ],
                 Pacor.Problem.remove_obstacle p dest ))
           | _ ->
             let d = if seed mod 2 = 0 then p.Pacor.Problem.delta + 1 else p.Pacor.Problem.delta - 1 in
             ( req
                 [
                   ("op", Json.String "set_delta");
                   ("session", Json.String "q");
                   ("delta", Json.Int d);
                 ],
               Pacor.Problem.with_delta p d )
         in
         match mutated with
         | Error _ ->
           (* The daemon must refuse what the library refuses (or answer
              the ping used as a skip marker). *)
           let out = Server.handle server delta_req in
           (match Json.of_string out.Server.line with
            | Ok j -> (
              match Option.bind (Json.member "ok" j) Json.bool_opt with
              | Some _ -> true
              | None -> QCheck.Test.fail_reportf "no ok field")
            | Error e -> QCheck.Test.fail_reportf "unparseable: %s" e)
         | Ok p' -> (
           let out = Server.handle server delta_req in
           let j =
             match Json.of_string out.Server.line with
             | Ok j -> j
             | Error e -> QCheck.Test.fail_reportf "unparseable: %s" e
           in
           match Option.bind (Json.member "ok" j) Json.bool_opt with
           | Some false ->
             (* The library accepted the edit, the daemon refused: wrong. *)
             QCheck.Test.fail_reportf "seed %d kind %d: daemon refused a legal edit: %s"
               seed kind out.Server.line
           | None -> QCheck.Test.fail_reportf "no ok field"
           | Some true -> (
             let routed_served = result_int j "routed_valves" in
             let length_served = result_int j "total_length" in
             let dirty =
               Option.get
                 (Option.bind
                    (Option.bind (Json.member "result" j) (Json.member "dirty"))
                    (function Json.List l -> Some l | _ -> None))
             in
             let incremental =
               Option.get
                 (Option.bind
                    (Option.bind (Json.member "result" j) (Json.member "incremental"))
                    Json.bool_opt)
             in
             Alcotest.(check string)
               "served fingerprint is the mutated problem's"
               (Pacor.Problem_io.fingerprint p')
               (result_str j "fingerprint");
             if dirty = [] && length_served <> length0 then
               QCheck.Test.fail_reportf
                 "seed %d kind %d: empty dirty set but length %d -> %d" seed kind
                 length0 length_served;
             match Pacor.Engine.run p' with
             | Error _ -> true (* scratch failed structurally; daemon answered *)
             | Ok scratch ->
               let routed_scratch = Protocol.routed_valves scratch in
               let length_scratch =
                 (Pacor.Solution.stats scratch).Pacor.Solution.total_length
               in
               if routed_served < routed_scratch then
                 QCheck.Test.fail_reportf
                   "seed %d kind %d: served %d routed valves, scratch %d" seed kind
                   routed_served routed_scratch;
               (* A non-incremental answer IS the scratch answer. *)
               if (not incremental) && length_served <> length_scratch then
                 QCheck.Test.fail_reportf
                   "seed %d kind %d: fallback length %d, scratch %d" seed kind
                   length_served length_scratch;
               true))))

(* A non-fault edit that walls a valve in: the incremental repair can only
   quarantine it, which answers a smaller problem than the one asked for.
   The daemon must serve the mutated problem itself (here the scratch
   route, one valve short of complete), never the quarantined answer —
   even when that answer ties scratch on (routed valves, length). *)
let test_delta_never_serves_quarantine () =
  let text =
    String.concat "\n"
      [ "name pocket"; "grid 10 10"; "delta 1";
        "obstacle 1 2 1 2"; "obstacle 2 1 2 1"; "obstacle 2 3 2 3";
        "valve 0 2 2 01X"; "valve 1 6 6 10X";
        "pin 0 5"; "pin 9 5"; "pin 5 0"; "pin 5 9"; "" ]
  in
  let p =
    match Pacor.Problem_io.of_string text with
    | Ok p -> p
    | Error e -> Alcotest.failf "pocket problem: %s" e
  in
  let server = Server.create () in
  let _, routed =
    handle_ok server
      (req [ ("op", Json.String "route"); ("problem", Json.String text);
             ("session", Json.String "w") ])
  in
  Alcotest.(check int) "both valves routed" 2 (result_int routed "routed_valves");
  let exit_cell = Pacor_geom.Point.make 3 2 in
  let p' =
    match Pacor.Problem.add_obstacle p exit_cell with
    | Ok p' -> p'
    | Error e -> Alcotest.failf "add_obstacle: %s" e
  in
  let _, j =
    handle_ok server
      (req [ ("op", Json.String "add_obstacle"); ("session", Json.String "w");
             ("x", Json.Int 3); ("y", Json.Int 2) ])
  in
  Alcotest.(check string) "served the mutated problem"
    (Pacor.Problem_io.fingerprint p') (result_str j "fingerprint");
  Alcotest.(check int) "no valve dropped" 2 (result_int j "valves");
  let _, g =
    handle_ok server (req [ ("op", Json.String "get"); ("session", Json.String "w") ])
  in
  Alcotest.(check string) "session holds the mutated problem"
    (Pacor.Problem_io.fingerprint p') (result_str g "fingerprint")

(* ---------- session fields never go stale ---------- *)

(* A session holds its response fields, rendered once per write. After
   every kind of write, [get] must answer exactly what rendering the
   session's current solution afresh would. *)
let check_get_fresh what server session =
  let line, j =
    handle_ok server (req [ ("op", Json.String "get"); ("session", Json.String session) ])
  in
  match Server.session_solution server session with
  | None -> Alcotest.failf "%s: session %s gone" what session
  | Some sol ->
    let want =
      Json.to_string
        (Json.Obj
           (("session", Json.String session)
            :: ("revision", Json.Int (result_int j "revision"))
            :: Protocol.solution_fields sol))
    in
    Alcotest.(check string) (what ^ ": get = fresh fields") want (result_of line)

let pocket_text =
  String.concat "\n"
    [ "name pocket"; "grid 10 10"; "delta 1";
      "obstacle 1 2 1 2"; "obstacle 2 1 2 1"; "obstacle 2 3 2 3";
      "valve 0 2 2 01X"; "valve 1 6 6 10X";
      "pin 0 5"; "pin 9 5"; "pin 5 0"; "pin 5 9"; "" ]

let test_session_fields_fresh () =
  let route server ~session text =
    snd
      (handle_ok server
         (req [ ("op", Json.String "route"); ("problem", Json.String text);
                ("session", Json.String session) ]))
  in
  let edit server ~session what fields =
    let _, j =
      handle_ok server
        (req (("op", Json.String what) :: ("session", Json.String session) :: fields))
    in
    check_get_fresh what server session;
    j
  in
  let incremental j =
    Option.bind (Option.bind (Json.member "result" j) (Json.member "incremental")) Json.bool_opt
  in
  with_temp_journal (fun path ->
      let journal = journal_exn path in
      let server = Server.create ~journal () in
      let p = Synthetic.generate_exn (synthetic_spec 7) in
      let text = Pacor.Problem_io.to_string p in
      ignore (route server ~session:"s" text);
      check_get_fresh "route" server "s";
      let v = List.hd p.Pacor.Problem.valves in
      let dest = List.nth (free_cells p) 5 in
      ignore
        (edit server ~session:"s" "move_valve"
           [ ("valve", Json.Int v.Pacor_valve.Valve.id);
             ("x", Json.Int dest.Pacor_geom.Point.x); ("y", Json.Int dest.Pacor_geom.Point.y) ]);
      let cell = List.nth (free_cells p) 11 in
      ignore
        (edit server ~session:"s" "add_obstacle"
           [ ("x", Json.Int cell.Pacor_geom.Point.x); ("y", Json.Int cell.Pacor_geom.Point.y) ]);
      ignore
        (edit server ~session:"s" "remove_obstacle"
           [ ("x", Json.Int cell.Pacor_geom.Point.x); ("y", Json.Int cell.Pacor_geom.Point.y) ]);
      ignore (edit server ~session:"s" "set_delta" [ ("delta", Json.Int 4) ]);
      ignore (edit server ~session:"s" "set_delta" [ ("delta", Json.Int 0) ]);
      (* A cache-hit route rebinds the session to the base solution. *)
      let _, hit =
        handle_ok server
          (req [ ("op", Json.String "route"); ("problem", Json.String text);
                 ("session", Json.String "s") ])
      in
      Alcotest.(check (option bool)) "rebinding route is a cache hit" (Some true)
        (Option.bind (Json.member "cached" hit) Json.bool_opt);
      check_get_fresh "cache-hit route" server "s";
      (* Walling valve 0 in: a blocked cell (fault) quarantines it, an
         obstacle (edit) is answered by the scratch fallback. *)
      ignore (route server ~session:"f" pocket_text);
      let j = edit server ~session:"f" "inject_fault" [ ("fault", Json.String "cell=3:2") ] in
      Alcotest.(check int) "the fault quarantined valve 0" 1 (result_int j "routed_valves");
      ignore (route server ~session:"w" pocket_text);
      let j = edit server ~session:"w" "add_obstacle" [ ("x", Json.Int 3); ("y", Json.Int 2) ] in
      Alcotest.(check (option bool)) "answered by the scratch fallback" (Some false)
        (incremental j);
      ignore (edit server ~session:"s" "set_delta" [ ("delta", Json.Int 3) ]);
      Journal.close journal;
      (* Journal recovery rebinds every session from its record. *)
      let journal = journal_exn path in
      let recovered = Server.create ~journal () in
      Alcotest.(check int) "three sessions recovered" 3 (Server.recover recovered);
      List.iter (fun s -> check_get_fresh ("recovered " ^ s) recovered s) [ "s"; "f"; "w" ];
      Journal.close journal)

(* ---------- the raw-text route key ---------- *)

(* A route whose instance text was seen before skips the parse: the daemon
   maps the text's digest to the canonical fingerprint. Everything after
   the parse (quarantine, the one cache lookup, strict, session binding)
   must behave as on the parse path. *)

let stat server path =
  let rec go j = function
    | [] -> Option.get (Json.int_opt j)
    | k :: rest -> go (Option.get (Json.member k j)) rest
  in
  go (Server.stats_result server) path

let route_req ?(fields = []) text =
  req ([ ("op", Json.String "route"); ("problem", Json.String text) ] @ fields)

let cached j = Option.bind (Json.member "cached" j) Json.bool_opt

(* Each route makes exactly one cache lookup, none when quarantined, as on
   the parse path; [expect_raw] says whether the raw key answered it. *)
let counted ?(lookups = 1) server ~expect_raw f =
  let count () = stat server [ "cache"; "hits" ] + stat server [ "cache"; "misses" ] in
  let l0 = count () and r0 = stat server [ "raw_keys"; "hits" ] in
  let v = f () in
  Alcotest.(check int) "cache lookups" (l0 + lookups) (count ());
  Alcotest.(check int) "raw-key hit" (if expect_raw then r0 + 1 else r0)
    (stat server [ "raw_keys"; "hits" ]);
  v

(* The same instance with a comment and its directives after [delta] in
   reverse order. *)
let reformat text =
  match List.filter (fun l -> l <> "") (String.split_on_char '\n' text) with
  | name :: grid :: delta :: rest ->
    String.concat "\n" ((name :: grid :: delta :: "# reformatted" :: List.rev rest) @ [ "" ])
  | _ -> Alcotest.fail "short instance text"

let test_raw_key_hits () =
  let server = Server.create () in
  let route ~expect_raw text =
    counted server ~expect_raw (fun () -> handle_ok server (route_req text))
  in
  let line1, j1 = route ~expect_raw:false inst_text in
  let hits0 = stat server [ "cache"; "hits" ] in
  let line2, j2 = route ~expect_raw:true inst_text in
  Alcotest.(check (option bool)) "first not cached" (Some false) (cached j1);
  Alcotest.(check (option bool)) "repeat cached" (Some true) (cached j2);
  Alcotest.(check string) "repeat byte-identical" (result_of line1) (result_of line2);
  Alcotest.(check int) "one cache hit" (hits0 + 1) (stat server [ "cache"; "hits" ]);
  (* Another text of the same instance misses the raw key and hits the
     canonical entry, as before; its own repeat then hits the raw key. *)
  let other = reformat inst_text in
  Alcotest.(check bool) "the text differs" true (other <> inst_text);
  List.iter
    (fun expect_raw ->
       let line, j = route ~expect_raw other in
       Alcotest.(check (option bool)) "reformatted cached" (Some true) (cached j);
       Alcotest.(check string) "reformatted byte-identical" (result_of line1) (result_of line))
    [ false; true ];
  Alcotest.(check int) "two raw keys" 2 (stat server [ "raw_keys"; "size" ]);
  (* A session bound by a raw-key hit is the cached solution. *)
  let _, j = counted server ~expect_raw:true (fun () ->
    handle_ok server (route_req ~fields:[ ("session", Json.String "s") ] inst_text))
  in
  Alcotest.(check (option bool)) "binding route cached" (Some true) (cached j);
  check_get_fresh "raw-key bind" server "s"

(* Valve 2 sits in two seed clusters: the text parses, the engine refuses
   it at clustering, and the daemon quarantines its fingerprint. *)
let poison_text =
  "name poison\ngrid 20 12\ndelta 1\nvalve 1 4 4 1010\nvalve 2 8 4 1010\n\
   valve 3 12 4 1010\ncluster 0 1 2\ncluster 1 2 3\npin 0 3\npin 19 4\npin 0 5\npin 19 6\n"

let test_raw_key_poisoned () =
  let server = Server.create () in
  Alcotest.(check string) "first run fails in the engine" "engine"
    (handle_err server (route_req poison_text));
  let refused text ~expect_raw =
    let out =
      counted ~lookups:0 server ~expect_raw (fun () -> Server.handle server (route_req text))
    in
    let line = out.Server.line in
    let needle = "quarantined after earlier failure" in
    let n = String.length needle in
    let rec mentions i =
      i + n <= String.length line && (String.sub line i n = needle || mentions (i + 1))
    in
    Alcotest.(check bool) ("quarantined: " ^ line) true (mentions 0)
  in
  refused poison_text ~expect_raw:true;
  refused (reformat poison_text) ~expect_raw:false

let test_raw_key_strict () =
  let server = Server.create () in
  let limits = ("limits", Json.Obj [ ("max_expansions", Json.Int 1) ]) in
  (* A strict starved route is a budget error and stores nothing; its
     repeat (a raw-key hit, a cache miss) is the same error. *)
  List.iter
    (fun expect_raw ->
       Alcotest.(check string) "strict starved" "budget"
         (counted server ~expect_raw (fun () ->
            handle_err server
              (route_req ~fields:[ limits; ("strict", Json.Bool true) ] budget_inst))))
    [ false; true ];
  (* A strict route of an instance cached in full is answered from the
     cache, on either path. *)
  let line, _ = handle_ok server (route_req inst_text) in
  List.iter
    (fun text ->
       let l, j = handle_ok server (route_req ~fields:[ ("strict", Json.Bool true) ] text) in
       Alcotest.(check (option bool)) "strict hit" (Some true) (cached j);
       Alcotest.(check string) "strict hit byte-identical" (result_of line) (result_of l))
    [ inst_text; reformat inst_text ]

(* A raw key can outlive its canonical entry: a daemon started with
   limits caches nothing, and a cache of one evicts. Either way the route
   runs again and answers as the first one did, bar its runtime. *)
let test_raw_key_evicted () =
  let same_answer line1 line2 =
    let fields line =
      match Json.of_string (result_of line) with
      | Ok (Json.Obj kvs) -> List.filter (fun (k, _) -> k <> "runtime_s") kvs
      | _ -> Alcotest.fail "result is not an object"
    in
    Alcotest.(check (list (pair string json_t))) "same answer" (fields line1) (fields line2)
  in
  let limited = { Pacor_route.Budget.no_limits with max_expansions = Some max_int } in
  let server = Server.create ~limits:limited () in
  let line1, j1 = handle_ok server (route_req inst_text) in
  let line2, j2 =
    counted server ~expect_raw:true (fun () -> handle_ok server (route_req inst_text))
  in
  Alcotest.(check (option bool)) "uncached" (Some false) (cached j1);
  Alcotest.(check (option bool)) "routed again" (Some false) (cached j2);
  same_answer line1 line2;
  let server = Server.create ~cache_capacity:1 () in
  let line1, _ = handle_ok server (route_req inst_text) in
  ignore (handle_ok server (route_req budget_inst));
  let line2, j2 =
    counted server ~expect_raw:false (fun () -> handle_ok server (route_req inst_text))
  in
  Alcotest.(check (option bool)) "evicted entry routed again" (Some false) (cached j2);
  same_answer line1 line2

let test_raw_key_file () =
  let path = Filename.temp_file "pacor-test" ".chip" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let server = Server.create () in
      let write text = Out_channel.with_open_bin path (fun oc -> output_string oc text) in
      let route () =
        snd (handle_ok server (req [ ("op", Json.String "route"); ("file", Json.String path) ]))
      in
      let fingerprint text =
        Pacor.Problem_io.fingerprint (Result.get_ok (Pacor.Problem_io.of_string text))
      in
      write inst_text;
      ignore (route ());
      Alcotest.(check (option bool)) "same file cached" (Some true) (cached (route ()));
      write budget_inst;
      let j = route () in
      Alcotest.(check (option bool)) "changed file routed" (Some false) (cached j);
      Alcotest.(check string) "the new instance" (fingerprint budget_inst)
        (result_str j "fingerprint"))

let test_raw_key_capacity () =
  let server = Server.create ~cache_capacity:2 () in
  List.iter
    (fun k ->
       (* A new name is a new instance. *)
       let body = List.tl (String.split_on_char '\n' inst_text) in
       let text = String.concat "\n" (Printf.sprintf "name raw-%d" k :: body) in
       ignore (handle_ok server (route_req text));
       ignore (handle_ok server (route_req (reformat text)));
       Alcotest.(check bool) "raw keys within capacity" true
         (stat server [ "raw_keys"; "size" ] <= 2))
    [ 1; 2; 3; 4; 5 ]

(* The journal and the response fields share one rendering of an edited
   problem: the fingerprint a [get] reports is the md5 of the text the
   journal holds. *)
let test_journal_fingerprint () =
  with_temp_journal (fun path ->
      let journal = journal_exn path in
      let server = Server.create ~journal () in
      ignore (handle_ok server (route_req ~fields:[ ("session", Json.String "s") ] inst_text));
      let session = ("session", Json.String "s") in
      let _, jd =
        handle_ok server
          (req [ ("op", Json.String "set_delta"); session; ("delta", Json.Int 2) ])
      in
      let _, jg = handle_ok server (req [ ("op", Json.String "get"); session ]) in
      match Journal.live journal with
      | [ ("s", 1, text) ] ->
        let md5 = Digest.to_hex (Digest.string text) in
        Alcotest.(check string) "edit fingerprint = md5 of the record" md5
          (result_str jd "fingerprint");
        Alcotest.(check string) "get fingerprint = md5 of the record" md5
          (result_str jg "fingerprint");
        Journal.close journal
      | live -> Alcotest.failf "journal holds %d records" (List.length live))

let () =
  Alcotest.run "serve"
    [
      ( "json",
        [
          Alcotest.test_case "parse and emit" `Quick test_json_basics;
          QCheck_alcotest.to_alcotest prop_json_roundtrip;
        ] );
      ( "lru",
        [
          Alcotest.test_case "eviction and promotion" `Quick test_lru;
          QCheck_alcotest.to_alcotest prop_lru_capacity;
        ] );
      ( "fingerprint",
        [
          Alcotest.test_case "canonical rendering" `Quick test_fingerprint_canonical;
          QCheck_alcotest.to_alcotest prop_fingerprint_roundtrip;
        ] );
      ("clock", [ Alcotest.test_case "monotonic" `Quick test_clock_monotonic ]);
      ( "daemon",
        [
          Alcotest.test_case "request trace" `Quick test_handler_trace;
          Alcotest.test_case "budget classification" `Quick test_budget_classification;
          Alcotest.test_case "retry replay cache" `Quick test_replay_cache;
        ] );
      ( "linebuf",
        [
          QCheck_alcotest.to_alcotest prop_torn_chunking;
          Alcotest.test_case "oversized line" `Quick test_linebuf_oversized;
          Alcotest.test_case "garbage flood stays bounded" `Quick
            test_linebuf_garbage_flood;
        ] );
      ( "journal",
        [
          Alcotest.test_case "replay" `Quick test_journal_replay;
          Alcotest.test_case "torn tail" `Quick test_journal_torn_tail;
          Alcotest.test_case "compaction" `Quick test_journal_compaction;
          Alcotest.test_case "server recovery" `Quick test_recover;
          Alcotest.test_case "session fields never go stale" `Quick
            test_session_fields_fresh;
          Alcotest.test_case "edit fingerprint = md5 of its record" `Quick
            test_journal_fingerprint;
        ] );
      ( "raw key",
        [
          Alcotest.test_case "repeats and reformatted texts" `Quick test_raw_key_hits;
          Alcotest.test_case "quarantine still refuses" `Quick test_raw_key_poisoned;
          Alcotest.test_case "strict as on the parse path" `Quick test_raw_key_strict;
          Alcotest.test_case "evicted answers route again" `Quick test_raw_key_evicted;
          Alcotest.test_case "a changed file is not stale" `Quick test_raw_key_file;
          Alcotest.test_case "never over capacity" `Quick test_raw_key_capacity;
        ] );
      ( "overload",
        [ Alcotest.test_case "serve loop under fire" `Quick test_serve_loop_overload ] );
      ( "deltas",
        [ QCheck_alcotest.to_alcotest prop_delta_never_worse;
          Alcotest.test_case "never serves a quarantine" `Quick
            test_delta_never_serves_quarantine ] );
    ]
