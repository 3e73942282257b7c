module J = Pacor_serve.Json

type row = {
  key : string;
  fingerprint : string option;
  counters : (string * int) list;
}

type t = {
  bench : string;
  rows : row list;
  invariants : (string * bool) list;
  timings : (string * float) list;
}

let row ?fingerprint key counters = { key; fingerprint; counters }

let obj f l = J.Obj (List.map (fun (n, v) -> (n, f v)) l)

let row_json r =
  J.Obj
    ((("key", J.String r.key)
      :: Option.to_list (Option.map (fun f -> ("fingerprint", J.String f)) r.fingerprint))
     @ [ ("counters", obj (fun v -> J.Int v) r.counters) ])

let to_string t =
  Printf.sprintf
    "{\"bench\": %s,\n \"rows\": [\n  %s],\n \"invariants\": %s,\n \"timings\": %s}\n"
    (J.to_string (J.String t.bench))
    (String.concat ",\n  " (List.map (fun r -> J.to_string (row_json r)) t.rows))
    (J.to_string (obj (fun b -> J.Bool b) t.invariants))
    (J.to_string (obj (fun f -> J.Float f) t.timings))

let ( let* ) = Result.bind

let all f l =
  List.fold_right (fun x acc -> let* acc = acc in let* y = f x in Ok (y :: acc)) l (Ok [])

let fields what conv = function
  | Some (J.Obj l) ->
    all
      (fun (n, v) ->
         Option.to_result ~none:(Printf.sprintf "%s: %s has the wrong type" what n)
           (Option.map (fun x -> (n, x)) (conv v)))
      l
  | _ -> Error (what ^ ": missing or not an object")

let of_string s =
  let* j = J.of_string s in
  let* bench =
    Option.to_result ~none:"bench: missing" (Option.bind (J.member "bench" j) J.string_opt)
  in
  let* rows =
    match J.member "rows" j with
    | Some (J.List l) ->
      all
        (fun rj ->
           let* key =
             Option.to_result ~none:"rows: a row without a key"
               (Option.bind (J.member "key" rj) J.string_opt)
           in
           (* A fingerprint that is not a string reads as none, which the
              comparison then reports. *)
           let fingerprint = Option.bind (J.member "fingerprint" rj) J.string_opt in
           let* counters = fields ("row " ^ key) J.int_opt (J.member "counters" rj) in
           Ok { key; fingerprint; counters })
        l
    | _ -> Error "rows: missing or not a list"
  in
  let* invariants = fields "invariants" J.bool_opt (J.member "invariants" j) in
  let* timings = fields "timings" J.float_opt (J.member "timings" j) in
  Ok { bench; rows; invariants; timings }

let diff ~record ~fresh =
  let out = ref [] in
  let say fmt = Printf.ksprintf (fun m -> out := m :: !out) fmt in
  (* Each name of [a] that [b] lacks, said to be missing from [where]. *)
  let missing what a b where =
    List.iter
      (fun n -> if not (List.mem n b) then say "%s %s: missing from the %s" what n where)
      a
  in
  let both what a b =
    missing what a b "fresh run";
    missing what b a "record"
  in
  if record.bench <> fresh.bench then
    say "bench: %S in the record, %S in the fresh run" record.bench fresh.bench;
  let keys t = List.map (fun r -> r.key) t.rows in
  both "row" (keys record) (keys fresh);
  let shared a b = List.filter (fun k -> List.mem k b) a in
  if shared (keys record) (keys fresh) <> shared (keys fresh) (keys record) then
    say "rows: record order %s, fresh order %s"
      (String.concat ", " (keys record)) (String.concat ", " (keys fresh));
  let show = Option.fold ~none:"none" ~some:(Printf.sprintf "%S") in
  List.iter
    (fun r ->
       match List.find_opt (fun f -> f.key = r.key) fresh.rows with
       | None -> ()
       | Some f ->
         if r.fingerprint <> f.fingerprint then
           say "row %s: fingerprint %s in the record, %s in the fresh run" r.key
             (show r.fingerprint) (show f.fingerprint);
         both ("row " ^ r.key ^ ": counter") (List.map fst r.counters) (List.map fst f.counters);
         List.iter
           (fun (n, v) ->
              match List.assoc_opt n f.counters with
              | Some v' when v' <> v ->
                say "row %s: counter %s = %d in the record, %d in the fresh run" r.key n v v'
              | _ -> ())
           r.counters)
    record.rows;
  both "invariant" (List.map fst record.invariants) (List.map fst fresh.invariants);
  let held where =
    List.iter (fun (n, b) -> if not b then say "invariant %s: false in the %s" n where)
  in
  held "record" record.invariants;
  held "fresh run" fresh.invariants;
  both "timing" (List.map fst record.timings) (List.map fst fresh.timings);
  List.rev !out
