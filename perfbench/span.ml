(* In-memory span recorder for the traced run.

   Spans are opened only by the benchmark's own calls into the program's
   public functions ([measure]) and by the per-stage fields the engine
   already returns ([reported]); nothing inside lib/ is instrumented.
   Records stay in memory until the run ends, then go out as a Chrome
   [trace_event] file and as per-layer self-time sums. With tracing off,
   [measure] is a direct call. *)

type record = {
  name : string;
  layer : string;
  root : string;  (** name of the outermost span: "op" or "probe" *)
  ts : float;  (** monotonic seconds *)
  dur : float;
  self : float;  (** [dur] minus the children's [dur] *)
  measured : bool;
      (** false: timed by the engine ([stage_seconds]), so no CPU time or
          allocation figures exist for it *)
  cpu : float;
  minor_words : float;
  self_minor_words : float;  (** [minor_words] minus the measured children's *)
  major_words : float;
  major_gcs : int;
  pops : int;  (** search pops the engine reported for the span; 0 if none *)
}

type frame = {
  f_name : string;
  f_layer : string;
  f_ts : float;
  mutable f_child : float;
  mutable f_child_words : float;
}

let enabled = ref false
let records : record list ref = ref []
let stack : frame list ref = ref []
let root = ref ""
let now = Pacor_route.Clock.now_mono

let push name layer ts =
  if !stack = [] then root := name;
  let f = { f_name = name; f_layer = layer; f_ts = ts; f_child = 0.; f_child_words = 0. } in
  stack := f :: !stack;
  f

let pop f ~dur ~measured ~cpu ~minor ~major ~gcs ~pops =
  stack := List.tl !stack;
  (match !stack with
   | p :: _ ->
     p.f_child <- p.f_child +. dur;
     p.f_child_words <- p.f_child_words +. minor
   | [] -> ());
  records :=
    {
      name = f.f_name;
      layer = f.f_layer;
      root = !root;
      ts = f.f_ts;
      dur;
      self = dur -. f.f_child;
      measured;
      cpu;
      minor_words = minor;
      self_minor_words = minor -. f.f_child_words;
      major_words = major;
      major_gcs = gcs;
      pops;
    }
    :: !records

let measure ~name ~layer ?children f =
  if not !enabled then f ()
  else begin
    let g0 = Gc.quick_stat () in
    let c0 = Sys.time () in
    let t0 = now () in
    let fr = push name layer t0 in
    let close v =
      let t1 = now () in
      let c1 = Sys.time () in
      let g1 = Gc.quick_stat () in
      (* Reported children are attached after the call returns, from what
         it returned; the span's own figures were read before that. *)
      (match (children, v) with
       | Some k, Some v -> k v ~ts:t0 ~dur:(t1 -. t0)
       | _ -> ());
      pop fr ~dur:(t1 -. t0) ~measured:true ~cpu:(c1 -. c0)
        ~minor:(g1.Gc.minor_words -. g0.Gc.minor_words)
        ~major:(g1.Gc.major_words -. g0.Gc.major_words)
        ~gcs:(g1.Gc.major_collections - g0.Gc.major_collections)
        ~pops:0
    in
    match f () with
    | v ->
      close (Some v);
      v
    | exception e ->
      close None;
      raise e
  end

let reported ~name ~layer ~ts ~dur ?(pops = 0) children =
  if !enabled then begin
    let fr = push name layer ts in
    children ();
    pop fr ~dur ~measured:false ~cpu:0. ~minor:0. ~major:0. ~gcs:0 ~pops
  end

(* ---------- queries ---------- *)

let all () = List.rev !records
let in_root r = List.filter (fun x -> x.root = r) (all ())
let named n = List.filter (fun x -> x.name = n) (all ())
let sum f l = List.fold_left (fun acc x -> acc +. f x) 0. l

(* ---------- output ---------- *)

let write_chrome path =
  let spans = all () in
  let t0 = List.fold_left (fun m r -> Float.min m r.ts) Float.infinity spans in
  let us s = Printf.sprintf "%.3f" (s *. 1e6) in
  let oc = open_out path in
  output_string oc "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  List.iteri
    (fun i r ->
      let args =
        [
          ("layer", Pacor_serve.Json.String r.layer);
          ("source", Pacor_serve.Json.String (if r.measured then "measured" else "engine stage field"));
          ("wall_ms", Pacor_serve.Json.Float (r.dur *. 1e3));
          ("self_ms", Pacor_serve.Json.Float (r.self *. 1e3));
          ("pops", Pacor_serve.Json.Int r.pops);
        ]
        @
        if r.measured then
          [
            ("cpu_ms", Pacor_serve.Json.Float (r.cpu *. 1e3));
            ("minor_words", Pacor_serve.Json.Float r.minor_words);
            ("major_words", Pacor_serve.Json.Float r.major_words);
            ("major_gcs", Pacor_serve.Json.Int r.major_gcs);
          ]
        else []
      in
      Printf.fprintf oc
        "%s{\"name\":%s,\"cat\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%s,\"dur\":%s,\"args\":%s}\n"
        (if i = 0 then "" else ",")
        (Pacor_serve.Json.to_string (Pacor_serve.Json.String r.name))
        (Pacor_serve.Json.to_string (Pacor_serve.Json.String r.layer))
        (us (r.ts -. t0)) (us r.dur)
        (Pacor_serve.Json.to_string (Pacor_serve.Json.Obj args)))
    spans;
  output_string oc "]}\n";
  close_out oc

(* Self time per layer, and per span within it, over the spans under
   [root]; the root span's own self time is time no public call covers. *)
let self_table ~root =
  let spans = in_root root in
  let roots = List.filter (fun r -> r.name = root) spans in
  let ops = List.length roots in
  let total = sum (fun r -> r.dur) roots in
  let per_op x = x *. 1e3 /. float_of_int (max 1 ops) in
  let share x = if total > 0. then 100. *. x /. total else 0. in
  let group key =
    let h = Hashtbl.create 16 in
    List.iter
      (fun r ->
        let k = key r in
        Hashtbl.replace h k (r.self +. Option.value ~default:0. (Hashtbl.find_opt h k)))
      spans;
    List.sort (fun (_, a) (_, b) -> Float.compare b a) (List.of_seq (Hashtbl.to_seq h))
  in
  let unattributed r = r.name = root in
  Printf.printf "self time under %d %S spans (%.1f ms each):\n" ops root (per_op total);
  Printf.printf "  %-40s %12s %8s\n" "layer / span" ("ms/" ^ root) "share";
  List.iter
    (fun (layer, s) ->
      Printf.printf "  %-40s %12.3f %7.1f%%\n" layer (per_op s) (share s);
      List.iter
        (fun ((l, name), s) ->
          if l = layer && name <> "" then Printf.printf "    %-38s %12.3f %7.1f%%\n" name (per_op s) (share s))
        (group (fun r -> if unattributed r then ("(unattributed)", "") else (r.layer, r.name))))
    (group (fun r -> if unattributed r then "(unattributed)" else r.layer))
