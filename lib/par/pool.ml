type worker = { workspace : Pacor_route.Workspace.t }

(* One queue of tasks under one mutex. Each domain owns one worker
   context for its lifetime and runs whatever it dequeues on it, so a
   workspace is never shared between concurrently running tasks. *)
type t = {
  n : int;
  mutex : Mutex.t;
  work : Condition.t;  (* signalled on enqueue and on shutdown *)
  queue : (worker -> unit) Queue.t;
  mutable closed : bool;
  workers : worker array;
  mutable domains : unit Domain.t array;
}

let worker_workspace w = w.workspace
let jobs t = t.n

(* Domains beyond the physical core count only add time-slicing and
   stop-the-world GC synchronisation — measured as a 0.9x "speedup" at
   jobs=4 on one core. Domains are clamped to the hardware unless the
   caller explicitly oversubscribes. *)
let default_domains ~jobs =
  min jobs (Domain.recommended_domain_count ())

(* Tasks never raise ([run_tasks] wraps them), so a worker only leaves
   the loop once the pool is closed and the queue drained. *)
let rec worker_loop t w =
  Mutex.lock t.mutex;
  while Queue.is_empty t.queue && not t.closed do
    Condition.wait t.work t.mutex
  done;
  match Queue.take_opt t.queue with
  | None -> Mutex.unlock t.mutex
  | Some task ->
    Mutex.unlock t.mutex;
    task w;
    worker_loop t w

let create ?domains ~jobs:n () =
  if n < 1 then invalid_arg "Pool.create: jobs must be >= 1";
  let d =
    match domains with
    | None -> default_domains ~jobs:n
    | Some d ->
      if d < 1 || d > n then
        invalid_arg "Pool.create: domains must be in [1, jobs]";
      d
  in
  let t =
    {
      n;
      mutex = Mutex.create ();
      work = Condition.create ();
      queue = Queue.create ();
      closed = false;
      workers =
        Array.init d (fun _ -> { workspace = Pacor_route.Workspace.create () });
      domains = [||];
    }
  in
  t.domains <- Array.map (fun w -> Domain.spawn (fun () -> worker_loop t w)) t.workers;
  t

(* The shared scatter/gather core: every task settles (result or captured
   exception) before this returns, so a raising task can neither wedge the
   pool nor leak a domain — the callers only differ in how they report
   the captured exceptions. Each call waits on its own mutex/condition
   pair: concurrent [map] callers on one pool cannot steal each other's
   wakeups, because they share nothing but the task queue. *)
let run_tasks t label f xs =
  let inputs = Array.of_list xs in
  let n = Array.length inputs in
  let results = Array.make n None in
  let failures = Array.make n None in
  let remaining = Atomic.make n in
  let call_mutex = Mutex.create () in
  let all_done = Condition.create () in
  let task i w =
    (match f w inputs.(i) with
     | r -> results.(i) <- Some r
     | exception e ->
       failures.(i) <- Some (e, Printexc.get_raw_backtrace ()));
    (* The decrement publishes this task's writes (SC atomic); the
       last task signals under the call's own mutex, and the waiter
       re-checks the counter under that mutex — no lost wakeup. *)
    if Atomic.fetch_and_add remaining (-1) = 1 then begin
      Mutex.lock call_mutex;
      Condition.broadcast all_done;
      Mutex.unlock call_mutex
    end
  in
  Mutex.lock t.mutex;
  let closed = t.closed in
  if not closed then begin
    for i = 0 to n - 1 do
      Queue.add (task i) t.queue
    done;
    Condition.broadcast t.work
  end;
  Mutex.unlock t.mutex;
  if closed then invalid_arg (label ^ ": pool has been shut down");
  Mutex.lock call_mutex;
  while Atomic.get remaining > 0 do
    Condition.wait all_done call_mutex
  done;
  Mutex.unlock call_mutex;
  (results, failures)

let map_ctx t f xs =
  let results, failures = run_tasks t "Pool.map_ctx" f xs in
  (* Deterministic failure reporting: the earliest-indexed exception
     wins, whatever order the workers actually hit theirs in. *)
  Array.iter
    (function
      | Some (e, bt) -> Printexc.raise_with_backtrace e bt
      | None -> ())
    failures;
  Array.to_list (Array.map Option.get results)

let try_map_ctx t f xs =
  let results, failures = run_tasks t "Pool.try_map_ctx" f xs in
  List.init (Array.length results) (fun i ->
      match failures.(i) with
      | Some (e, _) -> Error e
      | None -> Ok (Option.get results.(i)))

(* Queued tasks still run: workers drain the queue before they exit. *)
let shutdown t =
  Mutex.lock t.mutex;
  let first = not t.closed in
  t.closed <- true;
  Condition.broadcast t.work;
  Mutex.unlock t.mutex;
  if first then Array.iter Domain.join t.domains

let with_pool ?domains ~jobs f =
  let t = create ?domains ~jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let map ~jobs f xs = with_pool ~jobs (fun t -> map_ctx t (fun _ x -> f x) xs)
