type t = {
  mutable searches : int;
  mutable refused : int;
  mutable pops : int;
  mutable pushes : int;
  mutable touches : int;
  mutable relaxations : int;
  mutable resets : int;
  mutable grid_allocs : int;
}

type snapshot = {
  searches : int;
  refused : int;
  pops : int;
  pushes : int;
  touched : int;
  relaxations : int;
  resets : int;
  grid_allocs : int;
}

let create () : t =
  { searches = 0; refused = 0; pops = 0; pushes = 0; touches = 0; relaxations = 0; resets = 0;
    grid_allocs = 0 }

let reset (t : t) =
  t.searches <- 0;
  t.refused <- 0;
  t.pops <- 0;
  t.pushes <- 0;
  t.touches <- 0;
  t.relaxations <- 0;
  t.resets <- 0;
  t.grid_allocs <- 0

let started (t : t) = t.searches <- t.searches + 1
let refused (t : t) = t.refused <- t.refused + 1
let popped (t : t) = t.pops <- t.pops + 1
let pushed (t : t) = t.pushes <- t.pushes + 1
let touched (t : t) = t.touches <- t.touches + 1
let relaxed (t : t) = t.relaxations <- t.relaxations + 1
let reset_noted (t : t) = t.resets <- t.resets + 1
let grid_alloc_noted (t : t) = t.grid_allocs <- t.grid_allocs + 1

let snapshot (t : t) : snapshot =
  {
    searches = t.searches;
    refused = t.refused;
    pops = t.pops;
    pushes = t.pushes;
    touched = t.touches;
    relaxations = t.relaxations;
    resets = t.resets;
    grid_allocs = t.grid_allocs;
  }

(* Adds [s] field by field, for work counted off the counters. *)
let charge (t : t) (s : snapshot) =
  t.searches <- t.searches + s.searches;
  t.refused <- t.refused + s.refused;
  t.pops <- t.pops + s.pops;
  t.pushes <- t.pushes + s.pushes;
  t.touches <- t.touches + s.touched;
  t.relaxations <- t.relaxations + s.relaxations;
  t.resets <- t.resets + s.resets;
  t.grid_allocs <- t.grid_allocs + s.grid_allocs

let zero =
  { searches = 0; refused = 0; pops = 0; pushes = 0; touched = 0; relaxations = 0; resets = 0;
    grid_allocs = 0 }

let diff (a : snapshot) (b : snapshot) : snapshot =
  {
    searches = a.searches - b.searches;
    refused = a.refused - b.refused;
    pops = a.pops - b.pops;
    pushes = a.pushes - b.pushes;
    touched = a.touched - b.touched;
    relaxations = a.relaxations - b.relaxations;
    resets = a.resets - b.resets;
    grid_allocs = a.grid_allocs - b.grid_allocs;
  }

let add (a : snapshot) (b : snapshot) : snapshot =
  {
    searches = a.searches + b.searches;
    refused = a.refused + b.refused;
    pops = a.pops + b.pops;
    pushes = a.pushes + b.pushes;
    touched = a.touched + b.touched;
    relaxations = a.relaxations + b.relaxations;
    resets = a.resets + b.resets;
    grid_allocs = a.grid_allocs + b.grid_allocs;
  }

let is_zero (s : snapshot) = s = zero

let pp ppf (s : snapshot) =
  Format.fprintf ppf
    "searches=%d refused=%d pops=%d pushes=%d touched=%d relax=%d resets=%d allocs=%d"
    s.searches s.refused s.pops s.pushes s.touched s.relaxations s.resets s.grid_allocs
