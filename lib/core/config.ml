type variant =
  | Full
  | Without_selection
  | Detour_first

type t = {
  variant : variant;
  lambda : float;
  max_candidates : int;
  solver : Pacor_select.Tree_select.solver;
  theta : int;
  max_ripup_rounds : int;
  limits : Pacor_route.Budget.limits;
  verbose : bool;
}

let log config fmt =
  if config.verbose then Format.eprintf ("[pacor] " ^^ fmt ^^ "@.")
  else Format.ifprintf Format.err_formatter fmt

let default =
  {
    variant = Full;
    lambda = 0.1;
    max_candidates = 8;
    solver = Pacor_select.Tree_select.Exact;
    theta = 10;
    max_ripup_rounds = 10;
    limits = Pacor_route.Budget.no_limits;
    verbose = false;
  }

let make ?(variant = Full) () = { default with variant }

(* The batch runner's retry policy: everything that bounds search effort
   gets roomier, nothing that changes the problem itself. *)
let relax t =
  {
    t with
    limits = Pacor_route.Budget.relax t.limits;
    theta = 2 * t.theta;
    max_ripup_rounds = t.max_ripup_rounds + (t.max_ripup_rounds / 2);
  }

let variant_name = function
  | Full -> "PACOR"
  | Without_selection -> "w/o Sel"
  | Detour_first -> "Detour First"
