type reason = Deadline | Expansions | Iterations

let reason_label = function
  | Deadline -> "deadline"
  | Expansions -> "expansions"
  | Iterations -> "iterations"

type limits = {
  timeout_s : float option;
  max_expansions : int option;
  max_iterations : int option;
}

let no_limits = { timeout_s = None; max_expansions = None; max_iterations = None }

let limits ?timeout_s ?max_expansions ?max_iterations () =
  (match timeout_s with
   | Some s when s <= 0.0 -> invalid_arg "Budget.limits: timeout_s must be positive"
   | _ -> ());
  (match max_expansions with
   | Some n when n <= 0 -> invalid_arg "Budget.limits: max_expansions must be positive"
   | _ -> ());
  (match max_iterations with
   | Some n when n <= 0 -> invalid_arg "Budget.limits: max_iterations must be positive"
   | _ -> ());
  { timeout_s; max_expansions; max_iterations }

let is_no_limits l =
  l.timeout_s = None && l.max_expansions = None && l.max_iterations = None

let relax ?(factor = 2.0) l =
  let scale_f = Option.map (fun s -> s *. factor) in
  let scale_i =
    Option.map (fun n ->
        let f = float_of_int n *. factor in
        if f >= float_of_int max_int then max_int else int_of_float f)
  in
  {
    timeout_s = scale_f l.timeout_s;
    max_expansions = scale_i l.max_expansions;
    max_iterations = scale_i l.max_iterations;
  }

(* How many [tick]s between clock reads. A [Clock.now_mono] call costs
   ~20-40ns; one read per 512 pops keeps the overhead below the heap
   traffic of a single A* relaxation while bounding deadline overshoot to
   512 pops. The monotonic clock also means an NTP step cannot expire (or
   resurrect) a deadline mid-run — essential once budgets guard requests
   in a long-lived daemon. *)
let clock_stride = 512

type t = {
  limits : limits;
  free : bool;  (* fast path: no limit of any kind, ticks are a no-op *)
  mutable deadline : float;        (* absolute; infinity when unarmed/none *)
  mutable expansions_left : int;   (* max_int when uncapped *)
  mutable iterations_left : int;   (* max_int when uncapped *)
  mutable countdown : int;         (* ticks until the next clock read *)
  mutable exhausted : reason option;
}

let unlimited () =
  {
    limits = no_limits;
    free = true;
    deadline = infinity;
    expansions_left = max_int;
    iterations_left = max_int;
    countdown = clock_stride;
    exhausted = None;
  }

let create l =
  {
    limits = l;
    free = is_no_limits l;
    deadline = infinity;
    expansions_left = Option.value l.max_expansions ~default:max_int;
    iterations_left = Option.value l.max_iterations ~default:max_int;
    countdown = clock_stride;
    exhausted = None;
  }

let arm t =
  if not t.free then begin
    (match t.limits.timeout_s with
     | Some s -> t.deadline <- Clock.now_mono () +. s
     | None -> t.deadline <- infinity);
    t.expansions_left <- Option.value t.limits.max_expansions ~default:max_int;
    t.iterations_left <- Option.value t.limits.max_iterations ~default:max_int;
    t.countdown <- clock_stride;
    t.exhausted <- None
  end

let exhausted t = t.exhausted

let check_clock t =
  t.countdown <- clock_stride;
  if t.deadline < infinity && Clock.now_mono () > t.deadline then begin
    t.exhausted <- Some Deadline;
    false
  end
  else true

(* The per-pop hot check: decrement the expansion allowance, and read the
   clock once every [clock_stride] calls. Must stay allocation-free. *)
let tick t =
  t.free
  ||
  match t.exhausted with
  | Some _ -> false
  | None ->
    if t.expansions_left <= 0 then begin
      t.exhausted <- Some Expansions;
      false
    end
    else begin
      t.expansions_left <- t.expansions_left - 1;
      t.countdown <- t.countdown - 1;
      if t.countdown <= 0 then check_clock t else true
    end

(* The coarse check for loop heads: always reads the clock, never charges
   an expansion. *)
let alive t =
  t.free
  ||
  match t.exhausted with
  | Some _ -> false
  | None -> check_clock t

let note_iteration t =
  t.free
  ||
  match t.exhausted with
  | Some _ -> false
  | None ->
    if t.iterations_left <= 0 then begin
      t.exhausted <- Some Iterations;
      false
    end
    else begin
      t.iterations_left <- t.iterations_left - 1;
      check_clock t
    end
