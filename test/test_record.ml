(* The committed bench records under their one schema, and the comparison
   every record mode runs against them: each committed BENCH_*.json must
   parse and match itself, each kind of corrupted field must be named in
   the diff, and a changed timing must pass. *)

let records = [ "route"; "escape"; "fault"; "serve"; "chaos"; "parallel" ]

let load name =
  let path = Printf.sprintf "../BENCH_%s.json" name in
  match Record.of_string (In_channel.with_open_text path In_channel.input_all) with
  | Ok r -> r
  | Error e -> Alcotest.failf "%s: %s" path e

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* [fresh] differs from [record] by exactly one named field. *)
let expect_one ~record ~fresh named =
  match Record.diff ~record ~fresh with
  | [ m ] when contains m named -> ()
  | ms ->
    Alcotest.failf "expected one mismatch naming %S, got [%s]" named (String.concat "; " ms)

let map_first p f l =
  let rec go = function
    | [] -> None
    | x :: t when p x -> Some (f x :: t)
    | x :: t -> Option.map (List.cons x) (go t)
  in
  go l

let test_record name () =
  let record = load name in
  Alcotest.(check (list string)) "matches itself" [] (Record.diff ~record ~fresh:record);
  (match Record.of_string (Record.to_string record) with
   | Ok r -> Alcotest.(check bool) "to_string round trip" true (r = record)
   | Error e -> Alcotest.fail e);
  let with_rows rows = { record with Record.rows } in
  let rows = record.rows in
  (match
     map_first
       (fun (r : Record.row) -> r.fingerprint <> None)
       (fun r -> { r with fingerprint = Option.map (fun f -> f ^ "x") r.fingerprint })
       rows
   with
   | Some rows -> expect_one ~record ~fresh:(with_rows rows) "fingerprint"
   | None -> ());
  (match
     map_first
       (fun (r : Record.row) -> r.counters <> [])
       (fun r ->
          match r.counters with
          | (n, v) :: t -> { r with counters = (n, v + 1) :: t }
          | [] -> r)
       rows
   with
   | Some rows ->
     let r = List.find (fun (r : Record.row) -> r.counters <> []) record.rows in
     expect_one ~record ~fresh:(with_rows rows) ("counter " ^ fst (List.hd r.counters))
   | None -> ());
  (match record.invariants with
   | (n, _) :: t ->
     let broken = { record with invariants = (n, false) :: t } in
     expect_one ~record ~fresh:broken ("invariant " ^ n ^ ": false in the fresh run");
     expect_one ~record:broken ~fresh:record ("invariant " ^ n ^ ": false in the record")
   | [] -> ());
  let last = List.nth rows (List.length rows - 1) in
  expect_one ~record
    ~fresh:(with_rows (List.filter (fun r -> r != last) rows))
    ("row " ^ last.key ^ ": missing from the fresh run");
  expect_one ~record
    ~fresh:(with_rows (rows @ [ Record.row "extra" [] ]))
    "row extra: missing from the record";
  (match rows with
   | a :: b :: t -> expect_one ~record ~fresh:(with_rows (b :: a :: t)) "rows: record order"
   | _ -> ());
  expect_one ~record ~fresh:{ record with bench = record.bench ^ "x" } "bench:";
  (match record.timings with
   | (n, _) :: t -> expect_one ~record ~fresh:{ record with timings = t } ("timing " ^ n)
   | [] -> ());
  Alcotest.(check (list string)) "timings are not compared" []
    (Record.diff ~record
       ~fresh:
         { record with timings = List.map (fun (n, v) -> (n, (2.0 *. v) +. 1.0)) record.timings })

let () =
  Alcotest.run "record"
    [ ( "committed records",
        List.map (fun n -> Alcotest.test_case ("BENCH_" ^ n) `Quick (test_record n)) records ) ]
