(** The one shape of every committed bench record ([BENCH_*.json]).

    A record names its bench, lists rows (each a key, the row's exact
    fingerprint string when it has one, and untimed integer counters),
    names the invariants the run must satisfy, and keeps its timings
    apart. Everything but a timing's value is deterministic, so a fresh
    run of a record mode must reproduce its committed record field by
    field; timings are recorded and never compared. *)

type row = {
  key : string;
  fingerprint : string option;
  counters : (string * int) list;
}

type t = {
  bench : string;
  rows : row list;
  invariants : (string * bool) list;
  timings : (string * float) list;  (** machine-dependent: wall time, allocation, cores *)
}

val row : ?fingerprint:string -> string -> (string * int) list -> row

val to_string : t -> string
(** JSON through {!Pacor_serve.Json}, one row per line. *)

val of_string : string -> (t, string) result

val diff : record:t -> fresh:t -> string list
(** One line per mismatched field, in record order; [[]] when [fresh]
    reproduces [record]: the same bench name, the same row keys in the
    same order, equal fingerprints and counters, the same invariant names
    all true in both, and the same timing names. *)
