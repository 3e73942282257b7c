open Pacor_valve

type error_class = Parse | Validation | Budget | Engine | Busy | Internal

let class_label = function
  | Parse -> "parse"
  | Validation -> "validation"
  | Budget -> "budget"
  | Engine -> "engine"
  | Busy -> "busy"
  | Internal -> "internal"

type delta_op =
  | Move_valve of { valve : int; x : int; y : int }
  | Add_obstacle of { x : int; y : int }
  | Remove_obstacle of { x : int; y : int }
  | Set_delta of { delta : int }
  | Inject_fault of { spec : string }

type op =
  | Ping
  | Route of { problem_text : string option; file : string option; session : string option }
  | Delta of { session : string; delta : delta_op }
  | Get of { session : string }
  | Close of { session : string }
  | Stats
  | Shutdown

type request = {
  id : Json.t;
  op : op;
  limits : Pacor_route.Budget.limits option;
  strict : bool;
  retry : bool;
}

let delta_label = function
  | Move_valve _ -> "move_valve"
  | Add_obstacle _ -> "add_obstacle"
  | Remove_obstacle _ -> "remove_obstacle"
  | Set_delta _ -> "set_delta"
  | Inject_fault _ -> "inject_fault"

(* ---------- request parsing ---------- *)

let parse_limits json =
  match json with
  | None -> Ok None
  | Some j ->
    let timeout_s = Option.bind (Json.member "timeout_s" j) Json.float_opt in
    let max_expansions = Option.bind (Json.member "max_expansions" j) Json.int_opt in
    let max_iterations = Option.bind (Json.member "max_iterations" j) Json.int_opt in
    (try
       Ok (Some (Pacor_route.Budget.limits ?timeout_s ?max_expansions ?max_iterations ()))
     with Invalid_argument m -> Error m)

(* [Error (id, msg)]: the id is whatever could be recovered from the
   malformed request, so even a parse failure answers the right caller. *)
let parse_request line =
  match Json.of_string line with
  | Error m -> Error (Json.Null, Parse, "malformed JSON: " ^ m)
  | Ok json ->
    let id = Option.value ~default:Json.Null (Json.member "id" json) in
    let field k = Json.member k json in
    let str k = Option.bind (field k) Json.string_opt in
    let int_f k = Option.bind (field k) Json.int_opt in
    let err c fmt = Printf.ksprintf (fun m -> Error (id, c, m)) fmt in
    let session_of k =
      match str "session" with
      | Some s -> Ok s
      | None -> Error (id, Validation, Printf.sprintf "%s requires a \"session\"" k)
    in
    let point_op k make =
      match (session_of k, int_f "x", int_f "y") with
      | Ok session, Some x, Some y -> Ok (Delta { session; delta = make x y })
      | (Error _ as e), _, _ -> e
      | Ok _, _, _ -> err Validation "%s requires integer \"x\" and \"y\"" k
    in
    let op =
      match str "op" with
      | None -> err Parse "missing \"op\""
      | Some "ping" -> Ok Ping
      | Some "route" ->
        (match (str "problem", str "file") with
         | None, None -> err Validation "route requires \"problem\" text or a \"file\" path"
         | problem_text, file -> Ok (Route { problem_text; file; session = str "session" }))
      | Some "move_valve" ->
        (match (session_of "move_valve", int_f "valve", int_f "x", int_f "y") with
         | Ok session, Some valve, Some x, Some y ->
           Ok (Delta { session; delta = Move_valve { valve; x; y } })
         | (Error _ as e), _, _, _ -> e
         | Ok _, _, _, _ ->
           err Validation "move_valve requires integer \"valve\", \"x\" and \"y\"")
      | Some "add_obstacle" -> point_op "add_obstacle" (fun x y -> Add_obstacle { x; y })
      | Some "remove_obstacle" ->
        point_op "remove_obstacle" (fun x y -> Remove_obstacle { x; y })
      | Some "set_delta" ->
        (match (session_of "set_delta", int_f "delta") with
         | Ok session, Some delta -> Ok (Delta { session; delta = Set_delta { delta } })
         | (Error _ as e), _ -> e
         | Ok _, None -> err Validation "set_delta requires an integer \"delta\"")
      | Some "inject_fault" ->
        (match (session_of "inject_fault", str "fault") with
         | Ok session, Some spec -> Ok (Delta { session; delta = Inject_fault { spec } })
         | (Error _ as e), _ -> e
         | Ok _, None -> err Validation "inject_fault requires a \"fault\" spec string")
      | Some "get" ->
        (match session_of "get" with Ok session -> Ok (Get { session }) | Error _ as e -> e)
      | Some "close" ->
        (match session_of "close" with
         | Ok session -> Ok (Close { session })
         | Error _ as e -> e)
      | Some "stats" -> Ok Stats
      | Some "shutdown" -> Ok Shutdown
      | Some other -> err Parse "unknown op %S" other
    in
    (match op with
     | Error _ as e -> e
     | Ok op ->
       (match parse_limits (field "limits") with
        | Error m -> Error (id, Validation, "bad limits: " ^ m)
        | Ok limits ->
          let flag k =
            match Option.bind (field k) Json.bool_opt with
            | Some b -> b
            | None -> false
          in
          Ok { id; op; limits; strict = flag "strict"; retry = flag "retry" }))

(* ---------- solution summary ---------- *)

let routed_valves (sol : Pacor.Solution.t) =
  List.fold_left
    (fun acc (c : Pacor.Solution.routed_cluster) ->
       if c.escape <> None then acc + Cluster.size c.routed.Pacor.Routed.cluster else acc)
    0 sol.Pacor.Solution.clusters

let stage_outcome_label = function
  | Pacor.Solution.Completed -> "completed"
  | Pacor.Solution.Degraded why -> "degraded: " ^ why
  | Pacor.Solution.Timed_out -> "timed-out"

let solution_fields ?validation ?fingerprint (sol : Pacor.Solution.t) =
  let stats = Pacor.Solution.stats sol in
  let problem = sol.Pacor.Solution.problem in
  let valves = Pacor.Problem.valve_count problem in
  let validation =
    let verdict =
      match validation with Some v -> v | None -> Pacor.Solution.validate sol
    in
    match verdict with
    | Ok () -> []
    | Error msgs -> List.map (fun m -> Json.String m) msgs
  in
  [
    ("problem", Json.String problem.Pacor.Problem.name);
    ( "fingerprint",
      Json.String
        (match fingerprint with Some fp -> fp | None -> Pacor.Problem_io.fingerprint problem) );
    ("valves", Json.Int valves);
    ("routed_valves", Json.Int (routed_valves sol));
    ("clusters", Json.Int (List.length sol.Pacor.Solution.clusters));
    ("matched_clusters", Json.Int stats.Pacor.Solution.matched_clusters);
    ("total_length", Json.Int stats.Pacor.Solution.total_length);
    ("matched_length", Json.Int stats.Pacor.Solution.matched_length);
    ("completion", Json.Float stats.Pacor.Solution.completion);
    ("delta", Json.Int problem.Pacor.Problem.delta);
    ("runtime_s", Json.Float stats.Pacor.Solution.runtime_s);
    ( "budget_exhausted",
      match sol.Pacor.Solution.budget_exhausted with
      | None -> Json.Null
      | Some r -> Json.String (Pacor_route.Budget.reason_label r) );
    ("valid", Json.Bool (validation = []));
    ("violations", Json.List validation);
    ( "stage_outcomes",
      Json.Obj
        (List.map
           (fun (stage, o) -> (stage, Json.String (stage_outcome_label o)))
           sol.Pacor.Solution.stage_outcomes) );
  ]

let solution_result sol = Json.Obj (solution_fields sol)

(* ---------- response rendering ----------

   Rendered by hand, not via [Json.to_string] on one big object, for two
   load-bearing reasons: the ["result"] field must come byte-for-byte LAST
   (shell clients split on [{"result":]), and a cached response must replay
   the stored result string untouched so cache hits are byte-identical to
   the first computation. *)

let render_ok ~id ~cached ~result =
  let buf = Buffer.create (String.length result + 64) in
  Buffer.add_string buf "{\"id\":";
  Json.to_buffer buf id;
  Buffer.add_string buf ",\"ok\":true,\"cached\":";
  Buffer.add_string buf (if cached then "true" else "false");
  Buffer.add_string buf ",\"result\":";
  Buffer.add_string buf result;
  Buffer.add_char buf '}';
  Buffer.contents buf

let render_error ~id ~cls ~message =
  Json.to_string
    (Json.Obj
       [
         ("id", id);
         ("ok", Json.Bool false);
         ( "error",
           Json.Obj
             [
               ("class", Json.String (class_label cls)); ("message", Json.String message);
             ] );
       ])
