(* Machine-speed calibration.

   On a shared virtual machine the speed of a fixed integer loop swings by
   up to 2x in phases that last seconds to minutes (other tenants' load),
   so the raw wall time of a run mostly says which phase it landed in. The
   harness interleaves short slices of that loop with its set-ups and ops
   (about 2% of the run; registers only, so the ops' caches stay warm) and
   multiplies each set-up's and op's time by [factor_near] its interval.
   Scaled figures estimate the times at the reference speed; the harness
   prints the raw ones beside them. *)

let slice_iters = 2_000_000

(* Median slice time, in seconds, on the machine the nominal op costs were
   measured on (a 2-vCPU Intel Xeon VM) in its fast phase. *)
let reference = 0.00182

let slice () =
  let t0 = Span.now () in
  let s = ref 0 in
  for i = 1 to slice_iters do
    s := !s + ((i land 7) lxor (i lsr 3))
  done;
  ignore (Sys.opaque_identity !s);
  Span.now () -. t0

(* (time the slice ended, slice seconds), newest first *)
let samples : (float * float) list ref = ref []
let last = ref Float.neg_infinity
let interval = 0.1

(* Takes one slice per [interval] elapsed since the last sampling, at most
   ten and at least [at_least]; call it between ops. Slices run on the
   client's domain even when a pool worker runs the ops: run as pool tasks
   they read 10-30% slower than the client's slices taken at the same
   time, and track the ops worse. *)
let sample ?(at_least = 0) () =
  let due = if !last = Float.neg_infinity then 3 else int_of_float ((Span.now () -. !last) /. interval) in
  let due = max at_least (min 10 due) in
  for _ = 1 to due do
    let d = slice () in
    samples := (Span.now (), d) :: !samples
  done;
  if due > 0 then last := Span.now ()

let median l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Multiply the time of whatever ran from [t0] to [t1] by this to estimate
   it at the reference speed (< 1 when the machine ran slower). It comes
   from the slices taken within a second of the interval, or the ten
   nearest when fewer were: the phases shift within a run, and a factor
   for the whole run mis-scaled the ops of a phase it did not match.

   The ops slow down less than the loop: on the reference VM,
   serve-edit's throughput fell to ~0.75x and lattice-batch's to ~0.65x
   while the loop ran at 0.56-0.59x, and scaling by the full ratio
   over-corrected slow runs by up to 35%. The square root of the ratio
   sits between no scaling and full scaling. *)
let factor_near t0 t1 =
  let dist (t, _) = if t < t0 then t0 -. t else if t > t1 then t -. t1 else 0. in
  let near = List.filter (fun x -> dist x <= 1.) !samples in
  let near =
    if List.length near >= 10 then near
    else List.filteri (fun i _ -> i < 10) (List.sort (fun a b -> Float.compare (dist a) (dist b)) !samples)
  in
  sqrt (reference /. median (List.map snd near))
