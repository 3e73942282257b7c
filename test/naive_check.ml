(* A deliberately naive second judge of routing solutions, written from the
   paper's problem statement (Sec. 2, Defs. 1-4) rather than from the
   router. It reads only the solution's records and the problem's grid,
   valves, pins and delta; it calls nothing in lib/route, lib/flow or
   [Solution.validate]. Every path is rasterised onto fresh arrays:

   - every internal and escape path is non-empty, 4-connected, in bounds
     and off static obstacles, and every valve cell is too;
   - each cluster's claimed cells are exactly its path cells plus its
     valve cells;
   - no cell belongs to two clusters (channels, valves and escapes);
   - every problem valve sits in exactly one cluster, at its position;
   - every cluster escapes: its escape starts on one of its own cells and
     ends on its pin, and that pin is a problem pin no other cluster uses;
   - the valves of a cluster, which share that pin, are pairwise
     compatible, re-derived from their activation sequences;
   - a cluster marked matched records a length for each of its valves; a
     BFS over its path-segment graph from the escape start cell gives each
     valve's internal length, the spread of those is at most delta, and
     each recorded length is that distance plus the escape length. *)

open Pacor_geom
open Pacor_grid
open Pacor_valve
open Pacor

(* Def. 2: statuses agree, or either is don't-care. Def. 3: sequences of
   one schedule (equal length) agree at every step. *)
let statuses_agree (a : Activation.status) (b : Activation.status) =
  match a, b with
  | Dont_care, _ | _, Dont_care -> true
  | Open, Open | Closed, Closed -> true
  | Open, Closed | Closed, Open -> false

let sequences_agree a b =
  Array.length a = Array.length b
  &&
  let ok = ref true in
  Array.iteri (fun k s -> if not (statuses_agree s b.(k)) then ok := false) a;
  !ok

let check (sol : Solution.t) =
  let errors = ref [] in
  let err fmt = Format.kasprintf (fun s -> errors := s :: !errors) fmt in
  let problem = sol.problem in
  let grid = problem.grid in
  let w = Routing_grid.width grid and h = Routing_grid.height grid in
  let inside (p : Point.t) = p.x >= 0 && p.x < w && p.y >= 0 && p.y < h in
  let cell (p : Point.t) = (p.y * w) + p.x in
  let legal id what (p : Point.t) =
    if not (inside p) then (err "cluster %d: %s cell (%d,%d) out of bounds" id what p.x p.y; false)
    else if Routing_grid.blocked grid p then begin
      err "cluster %d: %s cell (%d,%d) on a static obstacle" id what p.x p.y;
      false
    end
    else true
  in
  let check_path id what pts =
    match pts with
    | [] -> err "cluster %d: empty %s path" id what
    | first :: rest ->
      ignore (legal id what first);
      ignore
        (List.fold_left
           (fun (a : Point.t) (b : Point.t) ->
              ignore (legal id what b);
              if abs (a.x - b.x) + abs (a.y - b.y) <> 1 then
                err "cluster %d: %s path jumps (%d,%d) -> (%d,%d)" id what a.x a.y b.x b.y;
              b)
           first rest)
  in
  let owner = Array.make (w * h) (-1) in
  let stamp = Array.make (w * h) (-1) in
  let occupy id (p : Point.t) =
    if inside p then begin
      let i = cell p in
      if owner.(i) >= 0 && owner.(i) <> id then
        err "cell (%d,%d) shared by clusters %d and %d" p.x p.y owner.(i) id
      else owner.(i) <- id
    end
  in
  let seen_valve = Hashtbl.create 64 in
  let pin_user = Hashtbl.create 64 in
  List.iteri
    (fun k (rc : Solution.routed_cluster) ->
       let cluster = rc.routed.cluster in
       let id = cluster.id in
       let valves = cluster.valves in
       let internal = List.map Path.points rc.routed.paths in
       List.iter (check_path id "internal") internal;
       List.iter (fun (v : Valve.t) -> ignore (legal id "valve" v.position)) valves;
       (* Claims = path cells + valve cells, on a per-cluster stamp. *)
       let own = ref 0 in
       let mark (p : Point.t) =
         if inside p && stamp.(cell p) <> k then begin
           stamp.(cell p) <- k;
           incr own
         end
       in
       List.iter (List.iter mark) internal;
       List.iter (fun (v : Valve.t) -> mark v.position) valves;
       let claimed = Point.Set.elements rc.routed.claimed in
       if List.length claimed <> !own
          || List.exists (fun p -> not (inside p) || stamp.(cell p) <> k) claimed
       then
         err "cluster %d: claims %d cells, paths and valves cover %d" id
           (List.length claimed) !own;
       List.iter (List.iter (occupy id)) internal;
       List.iter (fun (v : Valve.t) -> occupy id v.position) valves;
       (* Valves: each problem valve once, where the problem puts it. *)
       List.iter
         (fun (v : Valve.t) ->
            (match List.find_opt (fun (pv : Valve.t) -> pv.id = v.id) problem.valves with
             | None -> err "cluster %d: valve %d is not in the problem" id v.id
             | Some pv ->
               if not (Point.equal pv.position v.position) then
                 err "cluster %d: valve %d routed at (%d,%d), problem has (%d,%d)" id v.id
                   v.position.x v.position.y pv.position.x pv.position.y);
            if Hashtbl.mem seen_valve v.id then err "valve %d in two clusters" v.id;
            Hashtbl.replace seen_valve v.id ())
         valves;
       (* Pin sharing: pairwise compatible sequences. *)
       List.iteri
         (fun i (a : Valve.t) ->
            List.iteri
              (fun j (b : Valve.t) ->
                 if i < j && not (sequences_agree a.sequence b.sequence) then
                   err "cluster %d: valves %d and %d share a pin but are incompatible" id a.id
                     b.id)
              valves)
         valves;
       (* Escape. *)
       match rc.escape with
       | None -> err "cluster %d has no escape" id
       | Some e ->
         let pts = Path.points e.path in
         check_path id "escape" pts;
         (match pts with
          | [] -> ()
          | first :: _ ->
            let last = List.nth pts (List.length pts - 1) in
            if not (Point.equal first e.start_cell) then
              err "cluster %d: escape does not start at its start cell" id;
            if not (inside first && stamp.(cell first) = k) then
              err "cluster %d: escape starts off its own channels" id;
            if not (Point.equal last e.pin) then err "cluster %d: escape does not end on its pin" id);
         List.iter (occupy id) pts;
         if not (List.exists (Point.equal e.pin) problem.pins) then
           err "cluster %d escapes to (%d,%d), not a problem pin" id e.pin.x e.pin.y;
         (match Hashtbl.find_opt pin_user e.pin with
          | Some other -> err "pin (%d,%d) used by clusters %d and %d" e.pin.x e.pin.y other id
          | None -> Hashtbl.replace pin_user e.pin id);
         (* Length matching, re-measured on the channels. *)
         if rc.matched then begin
           let adj = Hashtbl.create 64 in
           let link a b =
             Hashtbl.replace adj a (b :: Option.value ~default:[] (Hashtbl.find_opt adj a))
           in
           List.iter
             (fun path ->
                ignore
                  (List.fold_left
                     (fun a b ->
                        link (cell a) (cell b);
                        link (cell b) (cell a);
                        b)
                     (List.hd path) (List.tl path)))
             (List.filter (fun p -> p <> [] && List.for_all inside p) internal);
           let dist = Hashtbl.create 64 in
           let queue = Queue.create () in
           if inside e.start_cell then begin
             Hashtbl.replace dist (cell e.start_cell) 0;
             Queue.add (cell e.start_cell) queue
           end;
           while not (Queue.is_empty queue) do
             let u = Queue.pop queue in
             let du = Hashtbl.find dist u in
             List.iter
               (fun v ->
                  if not (Hashtbl.mem dist v) then begin
                    Hashtbl.replace dist v (du + 1);
                    Queue.add v queue
                  end)
               (Option.value ~default:[] (Hashtbl.find_opt adj u))
           done;
           let escape_len = List.length pts - 1 in
           let reach =
             List.filter_map
               (fun (v : Valve.t) ->
                  match if inside v.position then Hashtbl.find_opt dist (cell v.position) else None with
                  | Some d -> Some (v.id, d)
                  | None ->
                    err "cluster %d: valve %d unreachable from the escape start" id v.id;
                    None)
               valves
           in
           (match List.map snd reach with
            | [] -> ()
            | d :: ds ->
              let spread = List.fold_left max d ds - List.fold_left min d ds in
              if spread > problem.delta then
                err "cluster %d marked matched but spread is %d > delta=%d" id spread
                  problem.delta);
           let recorded = List.sort compare (List.map fst rc.lengths) in
           if recorded <> List.sort compare (List.map (fun (v : Valve.t) -> v.id) valves) then
             err "cluster %d marked matched but records lengths for other valves" id;
           List.iter
             (fun (vid, len) ->
                match List.assoc_opt vid reach with
                | Some d when d + escape_len = len -> ()
                | Some d ->
                  err "cluster %d: valve %d records length %d, channels give %d" id vid len
                    (d + escape_len)
                | None -> ())
             rc.lengths
         end)
    sol.clusters;
  List.iter
    (fun (v : Valve.t) ->
       if not (Hashtbl.mem seen_valve v.id) then err "valve %d is in no cluster" v.id)
    problem.valves;
  match List.rev !errors with [] -> Ok () | es -> Error es
