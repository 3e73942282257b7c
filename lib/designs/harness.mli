(** Shared experiment harness: run the three Table 2 flow variants on a
    design and collect a report row. Used by both the CLI and the bench.

    Every measurement routes each (design, variant) pair as an independent
    job on a {!Pacor_par.Batch} pool; [jobs] (default 1) sets the number
    of worker domains. Rows and stats are identical whatever [jobs] is —
    only wall-clock changes.

    [limits] (default {!Pacor_route.Budget.no_limits}) installs a search
    budget on every run, and [retries] (default 0) lets the batch runner
    re-attempt failing (design, variant) jobs under a relaxed config —
    a permanently failing job still fails the whole measurement, since a
    Table 2 row with holes is meaningless. *)

val measure_table2 :
  ?progress:(string -> unit) ->
  ?jobs:int ->
  ?limits:Pacor_route.Budget.limits ->
  ?retries:int ->
  string list ->
  (Pacor.Report.row list, string) result
(** Measure several designs by name: for each, run "w/o Sel", "Detour
    First" and PACOR, validating each solution (any validation failure is
    an error). [progress] fires once per design, in input order, as its
    row is assembled. *)
