(** The daemon's wire protocol: line-delimited JSON requests and responses.

    One request per line, one response line per request, in order:

    {v
    {"id":1,"op":"route","problem":"<instance text>","session":"s0"}
    {"id":2,"op":"route","file":"designs/chip.pacor"}
    {"id":3,"op":"move_valve","session":"s0","valve":4,"x":10,"y":3}
    {"id":4,"op":"add_obstacle","session":"s0","x":5,"y":5}
    {"id":5,"op":"set_delta","session":"s0","delta":2}
    {"id":6,"op":"inject_fault","session":"s0","fault":"stuck=3"}
    {"id":7,"op":"get","session":"s0"}      {"id":8,"op":"stats"}
    {"id":9,"op":"close","session":"s0"}    {"id":10,"op":"shutdown"}
    v}

    Any request may carry ["limits"] ([timeout_s] / [max_expansions] /
    [max_iterations]) to bound that request's search, and ["strict"]:true
    to turn budget exhaustion into an error instead of a degraded-but-ok
    solution.

    Responses are [{"id":…,"ok":true,"cached":…,"result":{…}}] with
    ["result"] always the {e last} field — a shell client can split any
    successful response on [{"result":] with one [sed] — or
    [{"id":…,"ok":false,"error":{"class":…,"message":…}}]. Error classes:
    [parse] (malformed request), [validation] (well-formed but impossible:
    unknown session, illegal edit), [budget] (strict request exhausted its
    budget), [engine] (structural routing failure), [busy] (the daemon shed
    the request for overload: connection cap reached, or the connection's
    outgoing buffer passed its high-water mark — retry later, nothing was
    executed), [internal] (a bug, quarantined thereafter).

    A request may carry ["retry"]:true to mark it as a client re-send after
    a connection loss: the daemon then consults its replay cache and, when
    the same ["id"] was already answered, replays the stored response
    instead of executing the request a second time. *)

type error_class = Parse | Validation | Budget | Engine | Busy | Internal

type delta_op =
  | Move_valve of { valve : int; x : int; y : int }
  | Add_obstacle of { x : int; y : int }
  | Remove_obstacle of { x : int; y : int }
  | Set_delta of { delta : int }
  | Inject_fault of { spec : string }  (** a {!Pacor_fault.Fault.parse_spec} string *)

type op =
  | Ping
  | Route of { problem_text : string option; file : string option; session : string option }
  | Delta of { session : string; delta : delta_op }
  | Get of { session : string }
  | Close of { session : string }
  | Stats
  | Shutdown

type request = {
  id : Json.t;            (** echoed verbatim; [Null] when absent *)
  op : op;
  limits : Pacor_route.Budget.limits option;  (** per-request budget override *)
  strict : bool;          (** budget exhaustion becomes an error *)
  retry : bool;           (** a client re-send: replay cache may answer *)
}

val delta_label : delta_op -> string

val parse_request : string -> (request, Json.t * error_class * string) result
(** Total. The error side carries whatever ["id"] could be recovered from
    the malformed request, so even a parse failure answers the caller that
    sent it. *)

(** {2 Solution summaries} — shared by the daemon, [route --json] and the
    bench, so every surface speaks the same schema. *)

val solution_fields :
  ?validation:(unit, string list) result ->
  ?fingerprint:string ->
  Pacor.Solution.t ->
  (string * Json.t) list
(** The summary as an ordered field list, so delta handlers can prepend
    their own keys ([dirty], [incremental], …) to the same object. Includes
    the problem {!Pacor.Problem_io.fingerprint} and the full
    {!Pacor.Solution.validate} verdict; a caller that has already run
    [validate] on this solution passes its result as [validation] instead
    of having it run again, and one that already holds the problem's
    fingerprint passes it as [fingerprint]. *)

val solution_result : Pacor.Solution.t -> Json.t

val routed_valves : Pacor.Solution.t -> int
(** Valves whose cluster reached a control pin — the first component of the
    (routed, length) order the delta fallback compares by. *)

(** {2 Response rendering} *)

val render_ok : id:Json.t -> cached:bool -> result:string -> string
(** [result] is a pre-rendered JSON value, spliced in verbatim as the last
    field. Cached responses replay the stored result string untouched,
    which is what makes cache hits byte-identical to the first
    computation. *)

val render_error : id:Json.t -> cls:error_class -> message:string -> string
