open Pacor_geom
open Pacor_valve

(* A solution with its response fields ({!Protocol.solution_fields}):
   rendered at most once, however often a [get] or a cache hit reads
   them. *)
type rendered = {
  solution : Pacor.Solution.t;
  fields : (string * Json.t) list Lazy.t;
}

let rendered ?validation ?fingerprint solution =
  { solution; fields = lazy (Protocol.solution_fields ?validation ?fingerprint solution) }

type session = {
  mutable current : rendered;
  mutable revision : int;
}

type t = {
  cache : (rendered * string) Lru.t;  (* fingerprint -> answer, its result text *)
  raw : string Lru.t;  (* digest of a route's instance text -> its fingerprint *)
  sessions : (string, session) Hashtbl.t;
  mutable pool : Pacor_route.Workspace.t list;
  pool_limit : int;
  poisoned : (string, string) Hashtbl.t;
  config : Pacor.Config.t;
  started_at : float;
  journal : Journal.t option;
  replay : string Lru.t;  (* request id -> response line, for client retries *)
  mutable served : int;
  mutable delta_requests : int;
  mutable incremental_served : int;
  mutable error_count : int;
  mutable replayed : int;
  mutable recovered : int;
  (* Overload-control counters, bumped by the I/O loop. *)
  mutable busy_rejected : int;
  mutable oversized_lines : int;
  mutable idle_reaped : int;
  mutable shed : int;
  mutable max_pending_obs : int;   (* peak Linebuf bytes across connections *)
  mutable max_outgoing_obs : int;  (* peak outgoing-queue bytes across connections *)
}

let create ?(cache_capacity = 64) ?(limits = Pacor_route.Budget.no_limits)
    ?(replay_capacity = 256) ?journal () =
  {
    cache = Lru.create ~capacity:cache_capacity;
    raw = Lru.create ~capacity:cache_capacity;
    sessions = Hashtbl.create 16;
    pool = [];
    pool_limit = 8;
    poisoned = Hashtbl.create 4;
    config = { Pacor.Config.default with limits };
    started_at = Pacor_route.Clock.now_mono ();
    journal;
    replay = Lru.create ~capacity:replay_capacity;
    served = 0;
    delta_requests = 0;
    incremental_served = 0;
    error_count = 0;
    replayed = 0;
    recovered = 0;
    busy_rejected = 0;
    oversized_lines = 0;
    idle_reaped = 0;
    shed = 0;
    max_pending_obs = 0;
    max_outgoing_obs = 0;
  }

(* Warm workspace pool: a connection leases one workspace for its lifetime,
   so its grid-sized arrays stay grown across requests; the pool recycles
   them across connections. *)
let take_workspace t =
  match t.pool with
  | ws :: rest ->
    t.pool <- rest;
    ws
  | [] -> Pacor_route.Workspace.create ()

let return_workspace t ws =
  if List.length t.pool < t.pool_limit then t.pool <- ws :: t.pool

let config_for t = function
  | None -> t.config
  | Some limits -> { t.config with Pacor.Config.limits }

(* (routed valves, total length) — the order the delta fallback compares
   by: route more valves first, then shorter total channel. *)
let better (a : Pacor.Solution.t) (b : Pacor.Solution.t) =
  let score sol =
    (Protocol.routed_valves sol, -(Pacor.Solution.stats sol).Pacor.Solution.total_length)
  in
  score a >= score b

(* Every session mutation is journalled (canonical problem text + revision)
   and fsync'd before the response that acknowledges it leaves the daemon:
   an acknowledged session is, by construction, recoverable after a kill.
   The response's fingerprint is then an exact hit on the render slot the
   text came from. *)
let journal_bind t ~session ~revision ~(problem : Pacor.Problem.t) =
  match t.journal with
  | None -> ()
  | Some j ->
    let problem_text = Pacor.Problem_io.to_string problem in
    Journal.record_bind j ~session ~revision ~problem_text

let bind_session t name (r : rendered) =
  match name with
  | None -> ()
  | Some name ->
    Hashtbl.replace t.sessions name { current = r; revision = 0 };
    journal_bind t ~session:name ~revision:0 ~problem:r.solution.Pacor.Solution.problem

(* Rebuild the session store from the journal: parse each surviving
   record's canonical text and route it from scratch. Crash-only: a record
   that no longer parses or routes is skipped with a warning, never fatal —
   coming back up with n-1 sessions beats not coming back up. *)
let recover t =
  match t.journal with
  | None -> 0
  | Some j ->
    let ws = take_workspace t in
    Fun.protect
      ~finally:(fun () -> return_workspace t ws)
      (fun () ->
        List.fold_left
          (fun acc (session, revision, problem_text) ->
             match Pacor.Problem_io.of_string problem_text with
             | Error e ->
               Printf.eprintf "pacor-serve: recovery skipped session %S: %s\n%!"
                 session e;
               acc
             | Ok problem -> (
               match
                 try Pacor.Engine.run ~config:t.config ~workspace:ws problem with
                 | exn ->
                   Error
                     { Pacor.Engine.stage = "internal";
                       message = Printexc.to_string exn }
               with
               | Error e ->
                 Printf.eprintf
                   "pacor-serve: recovery skipped session %S: %s: %s\n%!" session
                   e.Pacor.Engine.stage e.message;
                 acc
               | Ok sol ->
                 Hashtbl.replace t.sessions session { current = rendered sol; revision };
                 t.recovered <- t.recovered + 1;
                 acc + 1))
          0 (Journal.live j))

(* ---------- route ---------- *)

let do_route t ~workspace ~(req : Protocol.request) ~problem_text ~file ~session =
  let text =
    match (problem_text, file) with
    | Some s, _ -> Ok s
    | None, Some path -> (
      try
        let ic = open_in path in
        let n = in_channel_length ic in
        let s = really_input_string ic n in
        close_in ic;
        Ok s
      with Sys_error e | Failure e -> Error e)
    | None, None -> Error "route requires \"problem\" or \"file\""
  in
  let parse text =
    Result.map_error (fun m -> (Protocol.Parse, "problem: " ^ m)) (Pacor.Problem_io.of_string text)
  in
  (* Everything a route does once it knows the instance's fingerprint: the
     quarantine check and the one cache lookup; [None] on a cache miss. *)
  let lookup fp =
    match Hashtbl.find_opt t.poisoned fp with
    | Some why ->
      Some (Error (Protocol.Internal, "request quarantined after earlier failure: " ^ why))
    | None -> (
      match Lru.find t.cache fp with
      | Some ({ solution = sol; _ }, _)
        when req.Protocol.strict && sol.Pacor.Solution.budget_exhausted <> None ->
        (* Defensive: the store guard below keeps degraded solutions out
           of the cache, but a strict request must never be answered with
           one regardless of how it got there. *)
        Some
          (Error
             ( Protocol.Budget,
               "budget exhausted: "
               ^ Pacor_route.Budget.reason_label
                   (Option.get sol.Pacor.Solution.budget_exhausted) ))
      | Some (r, result) ->
        bind_session t session r;
        Some (Ok (result, true))
      | None -> None)
  in
  let route fp problem =
    let config = config_for t req.Protocol.limits in
    match
      try Pacor.Engine.run ~config ~workspace problem with
      | exn ->
        (* [Engine.run] is total by contract; if that contract ever
           breaks, remember the offender so one bad instance cannot
           crash-loop the daemon. *)
        Hashtbl.replace t.poisoned fp (Printexc.to_string exn);
        Error { Pacor.Engine.stage = "internal"; message = Printexc.to_string exn }
    with
    | Error e ->
      if e.Pacor.Engine.stage = "internal" then ()
      else Hashtbl.replace t.poisoned fp (e.stage ^ ": " ^ e.message);
      Error
        ( (if e.Pacor.Engine.stage = "internal" then Protocol.Internal else Protocol.Engine),
          e.stage ^ ": " ^ e.message )
    | Ok sol ->
      if req.Protocol.strict && sol.Pacor.Solution.budget_exhausted <> None then
        Error
          ( Protocol.Budget,
            "budget exhausted: "
            ^ Pacor_route.Budget.reason_label (Option.get sol.Pacor.Solution.budget_exhausted) )
      else begin
        (* [fp] is the routed problem's: a raw-text hit never rendered it. *)
        let r = rendered ~fingerprint:fp sol in
        let result = Json.to_string (Json.Obj (Lazy.force r.fields)) in
        (* Only full-budget runs enter the cache: a budget-limited
           request — per-request limits or daemon-wide ones installed
           at create time — must not poison later unlimited ones with
           its degraded answer. *)
        if
          req.Protocol.limits = None
          && Pacor_route.Budget.is_no_limits config.Pacor.Config.limits
          && sol.Pacor.Solution.budget_exhausted = None
        then Lru.add t.cache fp (r, result);
        bind_session t session r;
        Ok (result, false)
      end
  in
  match text with
  | Error m -> Error (Protocol.Validation, m)
  | Ok text -> (
    (* A text seen before maps straight to its fingerprint: a
       byte-identical repeat skips the parse and the canonical render.
       Only a miss whose answer has left the cache still parses. *)
    let raw = Digest.string text in
    match Lru.find t.raw raw with
    | Some fp -> (
      match lookup fp with
      | Some answer -> answer
      | None -> Result.bind (parse text) (route fp))
    | None ->
      Result.bind (parse text) (fun problem ->
        let fp = Pacor.Problem_io.fingerprint problem in
        Lru.add t.raw raw fp;
        match lookup fp with Some answer -> answer | None -> route fp problem))

(* ---------- deltas ---------- *)

(* What a delta does to a session, decided before any routing runs. *)
type plan =
  | Rebase of Pacor.Solution.t
      (** dirty set empty: adopt the mutated problem (and possibly
          recomputed matched flags); every path byte-identical *)
  | Reroute of {
      problem : Pacor.Problem.t;
      is_dirty : Pacor.Solution.routed_cluster -> bool;
      revise : Cluster.t -> Cluster.t option;
    }
  | Repair of { faults : Pacor_fault.Fault.t list; fproblem : Pacor.Problem.t }

(* Matched flags under a different delta, paths untouched: the engine's
   assembly rule (LM shape, escaped, spread within delta) re-evaluated. *)
let rematch_flags ~delta ~problem (sol : Pacor.Solution.t) =
  let clusters =
    List.map
      (fun (c : Pacor.Solution.routed_cluster) ->
         let matched =
           Pacor.Routed.is_length_matched_shape c.routed
           && c.escape <> None
           && (match Pacor.Routed.spread c.routed with
               | Some s -> s <= delta
               | None -> false)
         in
         { c with Pacor.Solution.matched })
      sol.Pacor.Solution.clusters
  in
  { sol with Pacor.Solution.problem; clusters }

let plan_delta (sol : Pacor.Solution.t) (delta : Protocol.delta_op) =
  let problem = sol.Pacor.Solution.problem in
  let verr m = Error (Protocol.Validation, m) in
  match delta with
  | Protocol.Move_valve { valve; x; y } -> (
    let pos = Point.make x y in
    match Pacor.Problem.move_valve problem valve pos with
    | Error m -> verr m
    | Ok p' when p' == problem -> Ok (Rebase sol) (* moved onto its own cell *)
    | Ok p' ->
      let owns (c : Pacor.Solution.routed_cluster) =
        List.mem valve (Cluster.valve_ids c.routed.Pacor.Routed.cluster)
      in
      (* Dirty: the valve's own cluster, plus anyone whose channels run
         through the destination cell. *)
      let is_dirty c = owns c || Pacor.Solution.occupies c pos in
      let revise (cluster : Cluster.t) =
        if not (List.mem valve (Cluster.valve_ids cluster)) then Some cluster
        else begin
          let members =
            List.map
              (fun (v : Valve.t) -> if v.id = valve then { v with position = pos } else v)
              cluster.Cluster.valves
          in
          match
            Cluster.make ~id:cluster.Cluster.id
              ~length_matched:cluster.Cluster.length_matched members
          with
          | Ok c -> Some c
          | Error _ ->
            Some (Cluster.make_exn ~id:cluster.Cluster.id ~length_matched:false members)
        end
      in
      Ok (Reroute { problem = p'; is_dirty; revise }))
  | Protocol.Add_obstacle { x; y } -> (
    let pos = Point.make x y in
    match Pacor.Problem.add_obstacle problem pos with
    | Error m -> verr m
    | Ok p' ->
      let is_dirty c = Pacor.Solution.occupies c pos in
      Ok (Reroute { problem = p'; is_dirty; revise = (fun c -> Some c) }))
  | Protocol.Remove_obstacle { x; y } -> (
    match Pacor.Problem.remove_obstacle problem (Point.make x y) with
    | Error m -> verr m
    | Ok p' ->
      (* Freeing a cell invalidates nothing: every routed path stays
         legal, so the dirty set is empty by construction. *)
      Ok (Rebase { sol with Pacor.Solution.problem = p' }))
  | Protocol.Set_delta { delta } -> (
    match Pacor.Problem.with_delta problem delta with
    | Error m -> verr m
    | Ok p' ->
      if delta = problem.Pacor.Problem.delta then Ok (Rebase sol)
      else if delta > problem.Pacor.Problem.delta then
        (* Loosening re-matches by flag flip alone — no path moves. *)
        Ok (Rebase (rematch_flags ~delta ~problem:p' sol))
      else begin
        (* Tightening: clusters matched at the old threshold but over the
           new one get a re-route (detour may pull them back under);
           everything else keeps both its paths and its flag. *)
        let is_dirty (c : Pacor.Solution.routed_cluster) =
          c.matched
          && (match Pacor.Routed.spread c.routed with Some s -> s > delta | None -> false)
        in
        Ok (Reroute { problem = p'; is_dirty; revise = (fun c -> Some c) })
      end)
  | Protocol.Inject_fault { spec } -> (
    match Pacor_fault.Fault.parse_spec spec with
    | Error m -> verr ("fault: " ^ m)
    | Ok spec -> (
      match Pacor_fault.Fault.realise spec sol with
      | [] -> Ok (Rebase sol)
      | faults -> (
        match Pacor_fault.Fault.apply problem faults with
        | Error m -> verr ("fault: " ^ m)
        | Ok fproblem -> Ok (Repair { faults; fproblem }))))

(* Every delta appends one stage to the solution's bookkeeping lists; a
   long-lived session would grow them (and every response) without bound.
   Keep a recent window — nothing downstream needs deep history. *)
let max_session_stages = 12

let trim_stages (sol : Pacor.Solution.t) =
  let keep l =
    let n = List.length l in
    if n <= max_session_stages then l
    else List.filteri (fun i _ -> i >= n - max_session_stages) l
  in
  {
    sol with
    Pacor.Solution.stage_seconds = keep sol.Pacor.Solution.stage_seconds;
    stage_search = keep sol.Pacor.Solution.stage_search;
    stage_outcomes = keep sol.Pacor.Solution.stage_outcomes;
  }

let do_delta t ~workspace ~(req : Protocol.request) ~session:name ~delta =
  match Hashtbl.find_opt t.sessions name with
  | None -> Error (Protocol.Validation, "unknown session " ^ name)
  | Some sess -> (
    t.delta_requests <- t.delta_requests + 1;
    let stats = Pacor_route.Workspace.stats workspace in
    let s0 = Pacor_route.Search_stats.snapshot stats in
    let base = sess.current.solution in
    (* [validation], when given, is the verdict the certificate check
       already computed for [sol]; the answer's fields reuse it. *)
    let finish ?validation ~incremental ~dirty (sol : Pacor.Solution.t) =
      if req.Protocol.strict && sol.Pacor.Solution.budget_exhausted <> None then
        Error
          ( Protocol.Budget,
            "budget exhausted: "
            ^ Pacor_route.Budget.reason_label
                (Option.get sol.Pacor.Solution.budget_exhausted) )
      else begin
        let s1 = Pacor_route.Search_stats.snapshot stats in
        let expansions = (Pacor_route.Search_stats.diff s1 s0).Pacor_route.Search_stats.pops in
        let sol = trim_stages sol in
        let revision = sess.revision + 1 in
        journal_bind t ~session:name ~revision ~problem:sol.Pacor.Solution.problem;
        let r = rendered ?validation sol in
        sess.current <- r;
        sess.revision <- revision;
        if incremental then t.incremental_served <- t.incremental_served + 1;
        let fields =
          ("op", Json.String (Protocol.delta_label delta))
          :: ("revision", Json.Int sess.revision)
          :: ("incremental", Json.Bool incremental)
          :: ("dirty", Json.List (List.map (fun i -> Json.Int i) dirty))
          :: ("expansions", Json.Int expansions)
          :: Lazy.force r.fields
        in
        Ok (Json.to_string (Json.Obj fields), false)
      end
    in
    (* The certificate-or-fallback policy: serve the incremental result
       iff it validates, quarantined nothing (unless the delta is itself a
       fault, where quarantine is the contract) and ran within budget;
       otherwise route the mutated problem from scratch and serve whichever
       answer is lexicographically better on (routed valves, length). A
       candidate handed to the fallback has already validated. *)
    let fallback ~problem ~dirty incremental_sol =
      let config = config_for t req.Protocol.limits in
      match Pacor.Engine.run ~config ~workspace problem with
      | Error e -> (
        match incremental_sol with
        | Some sol -> finish ~validation:(Ok ()) ~incremental:true ~dirty sol
        | None -> Error (Protocol.Engine, e.Pacor.Engine.stage ^ ": " ^ e.message))
      | Ok full -> (
        match incremental_sol with
        | Some sol when better sol full -> finish ~validation:(Ok ()) ~incremental:true ~dirty sol
        | Some _ | None -> finish ~incremental:false ~dirty full)
    in
    (* One [Solution.validate] per incremental answer: its verdict decides
       the certificate and fills the served fields. *)
    let certify (r : Pacor_fault.Repair.t) ~quarantine_ok ~problem =
      let sol = r.Pacor_fault.Repair.solution in
      let validation = Pacor.Solution.validate sol in
      let candidate =
        validation = Ok () && (quarantine_ok || r.Pacor_fault.Repair.quarantined = [])
      in
      if candidate && sol.Pacor.Solution.budget_exhausted = None then
        finish ~validation ~incremental:true ~dirty:r.Pacor_fault.Repair.dirty sol
      else
        fallback ~problem ~dirty:r.Pacor_fault.Repair.dirty
          (if candidate then Some sol else None)
    in
    match plan_delta base delta with
    | Error _ as e -> e
    | Ok (Rebase sol) -> finish ~incremental:true ~dirty:[] sol
    | Ok (Reroute { problem; is_dirty; revise }) -> (
      let dirty_ids =
        List.sort Int.compare
          (List.filter_map
             (fun (c : Pacor.Solution.routed_cluster) ->
                if is_dirty c then Some c.routed.Pacor.Routed.cluster.Cluster.id else None)
             base.Pacor.Solution.clusters)
      in
      if dirty_ids = [] then
        finish ~incremental:true ~dirty:[] { base with Pacor.Solution.problem }
      else
        match
          Pacor_fault.Repair.reroute ~workspace ?limits:req.Protocol.limits
            ~stage:(Protocol.delta_label delta) ~problem ~is_dirty ~revise base
        with
        | Ok r ->
          (* A quarantine drops valves from the instance, so that answer
             solves a smaller problem than the edit asked for: it is no
             candidate here, not even when it ties scratch on score. *)
          certify r ~quarantine_ok:false ~problem
        | Error _ -> fallback ~problem ~dirty:dirty_ids None)
    | Ok (Repair { faults; fproblem }) -> (
      match
        Pacor_fault.Repair.run ~workspace ?limits:req.Protocol.limits ~faults base
      with
      | Ok r ->
        (* Quarantine is a legitimate fault outcome, not a certificate
           failure: a pinless valve stays pinless under a full re-route of
           the faulted instance too. *)
        certify r ~quarantine_ok:true ~problem:fproblem
      | Error _ ->
        fallback ~problem:fproblem
          ~dirty:(Pacor_fault.Repair.dirty_set ~faults base)
          None))

(* ---------- the other ops ---------- *)

let session_solution t name =
  Option.map (fun sess -> sess.current.solution) (Hashtbl.find_opt t.sessions name)

let do_get t ~session:name =
  match Hashtbl.find_opt t.sessions name with
  | None -> Error (Protocol.Validation, "unknown session " ^ name)
  | Some sess ->
    let fields =
      ("session", Json.String name)
      :: ("revision", Json.Int sess.revision)
      :: Lazy.force sess.current.fields
    in
    Ok (Json.to_string (Json.Obj fields), false)

let do_close t ~session:name =
  if Hashtbl.mem t.sessions name then begin
    Hashtbl.remove t.sessions name;
    (match t.journal with None -> () | Some j -> Journal.record_close j ~session:name);
    Ok (Json.to_string (Json.Obj [ ("closed", Json.String name) ]), false)
  end
  else Error (Protocol.Validation, "unknown session " ^ name)

let stats_result t =
  Json.Obj
    [
      ("sessions", Json.Int (Hashtbl.length t.sessions));
      ("served", Json.Int t.served);
      ("delta_requests", Json.Int t.delta_requests);
      ("incremental_served", Json.Int t.incremental_served);
      ("errors", Json.Int t.error_count);
      ( "cache",
        Json.Obj
          [
            ("size", Json.Int (Lru.length t.cache));
            ("capacity", Json.Int (Lru.capacity t.cache));
            ("hits", Json.Int (Lru.hits t.cache));
            ("misses", Json.Int (Lru.misses t.cache));
            ("evictions", Json.Int (Lru.evictions t.cache));
          ] );
      (* Routes whose instance text was recognised without a parse. *)
      ( "raw_keys",
        Json.Obj
          [
            ("size", Json.Int (Lru.length t.raw));
            ("hits", Json.Int (Lru.hits t.raw));
            ("misses", Json.Int (Lru.misses t.raw));
          ] );
      ("poisoned", Json.Int (Hashtbl.length t.poisoned));
      ("replayed", Json.Int t.replayed);
      ("recovered_sessions", Json.Int t.recovered);
      ( "overload",
        Json.Obj
          [
            ("busy_rejected", Json.Int t.busy_rejected);
            ("oversized_lines", Json.Int t.oversized_lines);
            ("idle_reaped", Json.Int t.idle_reaped);
            ("shed", Json.Int t.shed);
            ("max_pending_bytes", Json.Int t.max_pending_obs);
            ("max_outgoing_bytes", Json.Int t.max_outgoing_obs);
          ] );
      ( "journal",
        match t.journal with
        | None -> Json.Null
        | Some j ->
          Json.Obj
            [
              ("path", Json.String (Journal.path j));
              ("live", Json.Int (List.length (Journal.live j)));
              ("appended", Json.Int (Journal.records_appended j));
              ("compactions", Json.Int (Journal.compactions j));
            ] );
      ("uptime_s", Json.Float (Pacor_route.Clock.now_mono () -. t.started_at));
      ("monotonic_clock", Json.Bool Pacor_route.Clock.monotonic_available);
    ]

(* ---------- dispatch ---------- *)

type outcome = {
  line : string;  (** the response, newline not included *)
  stop : bool;    (** a shutdown was requested *)
}

let dispatch t ~workspace (req : Protocol.request) =
  match req.Protocol.op with
  | Protocol.Ping ->
    Ok
      ( Json.to_string
          (Json.Obj
             [
               ("pong", Json.Bool true);
               ("monotonic_clock", Json.Bool Pacor_route.Clock.monotonic_available);
             ]),
        false )
  | Protocol.Route { problem_text; file; session } ->
    do_route t ~workspace ~req ~problem_text ~file ~session
  | Protocol.Delta { session; delta } -> do_delta t ~workspace ~req ~session ~delta
  | Protocol.Get { session } -> do_get t ~session
  | Protocol.Close { session } -> do_close t ~session
  | Protocol.Stats -> Ok (Json.to_string (stats_result t), false)
  | Protocol.Shutdown -> Ok (Json.to_string (Json.Obj [ ("stopping", Json.Bool true) ]), false)

let handle ?workspace t line =
  t.served <- t.served + 1;
  match Protocol.parse_request line with
  | Error (id, cls, message) ->
    t.error_count <- t.error_count + 1;
    { line = Protocol.render_error ~id ~cls ~message; stop = false }
  | Ok req -> (
    (* Idempotent retry: a re-sent request (retry:true, same id) whose
       first copy was already executed — its response lost to a connection
       drop — replays the stored response instead of executing twice. Keyed
       by the id alone, because the re-sent line differs (the retry flag). *)
    let replay_key =
      match req.Protocol.id with Json.Null -> None | id -> Some (Json.to_string id)
    in
    match
      if req.Protocol.retry then Option.bind replay_key (Lru.find t.replay) else None
    with
    | Some stored ->
      t.replayed <- t.replayed + 1;
      { line = stored; stop = false }
    | None ->
      let ws, leased =
        match workspace with Some w -> (w, false) | None -> (take_workspace t, true)
      in
      Fun.protect
        ~finally:(fun () -> if leased then return_workspace t ws)
        (fun () ->
          let res =
            try dispatch t ~workspace:ws req with
            | Stack_overflow -> Error (Protocol.Internal, "stack overflow")
            | exn -> Error (Protocol.Internal, Printexc.to_string exn)
          in
          let out =
            match res with
            | Ok (result, cached) ->
              {
                line = Protocol.render_ok ~id:req.Protocol.id ~cached ~result;
                stop = req.Protocol.op = Protocol.Shutdown;
              }
            | Error (cls, message) ->
              t.error_count <- t.error_count + 1;
              { line = Protocol.render_error ~id:req.Protocol.id ~cls ~message;
                stop = false }
          in
          (match replay_key with
           | Some key -> Lru.add t.replay key out.line
           | None -> ());
          out))

(* ---------- the I/O loop ---------- *)

type conn = {
  fd : Unix.file_descr;       (* request side *)
  out_fd : Unix.file_descr;   (* response side (stdout for the stdio conn) *)
  lbuf : Linebuf.t;           (* capped line reassembly (satellite: the old
                                 pending Buffer.t grew without bound) *)
  outq : string Queue.t;      (* responses not yet written to the peer *)
  mutable out_off : int;      (* written prefix of the queue's head *)
  mutable out_bytes : int;    (* total queued bytes, vs the high-water mark *)
  ws : Pacor_route.Workspace.t;
  mutable closed : bool;      (* close_conn ran; drop any still-buffered lines *)
  mutable last_activity : float;  (* mono time of the last byte read *)
  is_stdio : bool;
}

let write_all fd s =
  let n = String.length s in
  let rec go off =
    if off < n then
      match Unix.write_substring fd s off (n - off) with
      | written -> go (off + written)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

let listen ~port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen fd 16;
  let actual =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, actual) -> actual
    | _ -> port
  in
  Printf.eprintf "pacor-serve: listening on 127.0.0.1:%d\n%!" actual;
  (fd, actual)

(* Defaults, shared with the CLI flags. *)
let default_max_conns = 64
let default_high_water = 8 * 1024 * 1024
let default_idle_timeout_s = 600.0
let default_tick_s = 0.25

let serve_loop ?(stdio = true) ?port ?listen_fd ?(max_conns = default_max_conns)
    ?(max_line = Linebuf.default_max_line) ?(high_water = default_high_water)
    ?(idle_timeout_s = default_idle_timeout_s) ?(tick_s = default_tick_s) t =
  (if Sys.os_type = "Unix" then
     try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let listen_fd =
    match (listen_fd, port) with
    | Some fd, _ -> Some fd
    | None, Some p -> Some (fst (listen ~port:p))
    | None, None -> None
  in
  let conns = ref [] in
  let mk_conn ~is_stdio fd out_fd =
    (try Unix.set_nonblock out_fd with Unix.Unix_error _ -> ());
    { fd; out_fd; lbuf = Linebuf.create ~max_line (); outq = Queue.create ();
      out_off = 0; out_bytes = 0; ws = take_workspace t; closed = false;
      last_activity = Pacor_route.Clock.now_mono (); is_stdio }
  in
  if stdio then conns := [ mk_conn ~is_stdio:true Unix.stdin Unix.stdout ];
  let stop = ref false in
  let close_conn c =
    if not c.closed then begin
      c.closed <- true;
      return_workspace t c.ws;
      if c.is_stdio then
        (* stdin/stdout belong to the process, not the connection; just
           undo the non-blocking flag we set. *)
        (try Unix.clear_nonblock c.out_fd with Unix.Unix_error _ -> ())
      else (try Unix.close c.fd with Unix.Unix_error _ -> ());
      conns := List.filter (fun c' -> c' != c) !conns
    end
  in
  (* Drain as much of the outgoing queue as the peer will take right now;
     never blocks. EAGAIN leaves the rest for the select write set. *)
  let rec flush_some c =
    if (not c.closed) && c.out_bytes > 0 then begin
      let head = Queue.peek c.outq in
      let len = String.length head in
      match Unix.write_substring c.out_fd head c.out_off (len - c.out_off) with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> flush_some c
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
      | exception Unix.Unix_error _ -> close_conn c
      | written ->
        c.out_bytes <- c.out_bytes - written;
        if c.out_off + written = len then begin
          ignore (Queue.pop c.outq);
          c.out_off <- 0;
          flush_some c
        end
        else c.out_off <- c.out_off + written
    end
  in
  (* Queue one response line. A peer that reads slower than it asks — the
     classic slow-client stall — accumulates here instead of blocking the
     loop; past the high-water mark the connection is shed outright. *)
  let queue_line c s =
    if not c.closed then begin
      Queue.add (s ^ "\n") c.outq;
      c.out_bytes <- c.out_bytes + String.length s + 1;
      if c.out_bytes > t.max_outgoing_obs then t.max_outgoing_obs <- c.out_bytes;
      flush_some c;
      if c.out_bytes > high_water then begin
        t.shed <- t.shed + 1;
        Printf.eprintf
          "pacor-serve: shedding connection %d bytes behind (high water %d)\n%!"
          c.out_bytes high_water;
        close_conn c
      end
    end
  in
  let busy_line =
    Protocol.render_error ~id:Json.Null ~cls:Protocol.Busy
      ~message:
        (Printf.sprintf "server at connection capacity (%d); retry later" max_conns)
    ^ "\n"
  in
  let reap_idle now =
    List.iter
      (fun c ->
         (* The stdio connection is the daemon's lifeline to its parent; an
            idle terminal is not a dead peer. TCP idlers give their leased
            workspace back. *)
         if (not c.is_stdio) && now -. c.last_activity > idle_timeout_s then begin
           t.idle_reaped <- t.idle_reaped + 1;
           close_conn c
         end)
      !conns
  in
  let chunk = Bytes.create 65536 in
  let last_tick = ref (Pacor_route.Clock.now_mono ()) in
  while (not !stop) && (!conns <> [] || listen_fd <> None) do
    let read_watch =
      (match listen_fd with Some fd -> [ fd ] | None -> [])
      @ List.map (fun c -> c.fd) !conns
    in
    let write_watch =
      List.filter_map (fun c -> if c.out_bytes > 0 then Some c.out_fd else None) !conns
    in
    (* Bounded tick (satellite: the old -1.0 select never woke for
       housekeeping): idle reaping and journal compaction run even when no
       client sends a byte. *)
    (match Unix.select read_watch write_watch [] tick_s with
     | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
     | ready, wready, _ ->
       List.iter
         (fun c -> if (not c.closed) && List.memq c.out_fd wready then flush_some c)
         !conns;
       (match listen_fd with
        | Some lfd when List.mem lfd ready ->
          (match Unix.accept lfd with
           | fd, _ ->
             if List.length !conns >= max_conns then begin
               (* Shed at the door: one busy error line, close, and never
                  lease a workspace. The fresh socket's buffer is empty, so
                  this short write cannot block. *)
               t.busy_rejected <- t.busy_rejected + 1;
               (try write_all fd busy_line with Unix.Unix_error _ -> ());
               (try Unix.close fd with Unix.Unix_error _ -> ())
             end
             else conns := mk_conn ~is_stdio:false fd fd :: !conns
           | exception Unix.Unix_error _ -> ())
        | _ -> ());
       List.iter
         (fun c ->
            if (not !stop) && (not c.closed) && List.memq c.fd ready then
              match Unix.read c.fd chunk 0 (Bytes.length chunk) with
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
              | exception Unix.Unix_error _ -> close_conn c
              | 0 -> close_conn c
              | n ->
                c.last_activity <- Pacor_route.Clock.now_mono ();
                let events = Linebuf.feed c.lbuf chunk 0 n in
                if Linebuf.high_water c.lbuf > t.max_pending_obs then
                  t.max_pending_obs <- Linebuf.high_water c.lbuf;
                List.iter
                  (fun ev ->
                     if (not !stop) && not c.closed then
                       match ev with
                       | Linebuf.Overflow ->
                         t.oversized_lines <- t.oversized_lines + 1;
                         t.error_count <- t.error_count + 1;
                         queue_line c
                           (Protocol.render_error ~id:Json.Null ~cls:Protocol.Parse
                              ~message:
                                (Printf.sprintf
                                   "request line exceeds %d bytes; dropped" max_line))
                       | Linebuf.Line line ->
                         if String.trim line <> "" then begin
                           let out = handle ~workspace:c.ws t line in
                           queue_line c out.line;
                           if out.stop then stop := true
                         end)
                  events)
         !conns);
    let now = Pacor_route.Clock.now_mono () in
    if now -. !last_tick >= tick_s then begin
      last_tick := now;
      reap_idle now;
      match t.journal with None -> () | Some j -> Journal.maybe_compact j
    end
  done;
  (* Shutdown: the response that acknowledged it may still be queued. Give
     each peer a blocking best-effort flush before closing. *)
  List.iter
    (fun c ->
       if (not c.closed) && c.out_bytes > 0 then begin
         (try Unix.clear_nonblock c.out_fd with Unix.Unix_error _ -> ());
         try
           Queue.iter
             (fun s ->
                if c.out_off > 0 then begin
                  write_all c.out_fd (String.sub s c.out_off (String.length s - c.out_off));
                  c.out_off <- 0
                end
                else write_all c.out_fd s)
             c.outq
         with Unix.Unix_error _ -> ()
       end)
    !conns;
  List.iter (fun c -> try close_conn c with _ -> ()) !conns;
  (match listen_fd with
   | Some fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
   | None -> ())
