type edge = { a : int; b : int; w : int }

let prim ~n ~weight =
  if n <= 1 then []
  else begin
    let in_tree = Array.make n false in
    let best = Array.make n max_int in
    let best_from = Array.make n (-1) in
    let edges = ref [] in
    in_tree.(0) <- true;
    for v = 1 to n - 1 do
      best.(v) <- weight 0 v;
      best_from.(v) <- 0
    done;
    for _ = 1 to n - 1 do
      (* Pick the cheapest frontier vertex (lowest index on ties). *)
      let pick = ref (-1) in
      for v = 0 to n - 1 do
        if (not in_tree.(v)) && (!pick = -1 || best.(v) < best.(!pick)) then pick := v
      done;
      let v = !pick in
      in_tree.(v) <- true;
      edges := { a = best_from.(v); b = v; w = best.(v) } :: !edges;
      for u = 0 to n - 1 do
        if not in_tree.(u) then begin
          let w = weight v u in
          if w < best.(u) then begin
            best.(u) <- w;
            best_from.(u) <- v
          end
        end
      done
    done;
    List.rev !edges
  end

let total_weight edges = List.fold_left (fun acc e -> acc + e.w) 0 edges

let is_spanning_tree ~n edges =
  List.length edges = n - 1
  && begin
    let uf = Union_find.create n in
    List.iter (fun e -> ignore (Union_find.union uf e.a e.b)) edges;
    n = 0 || Union_find.count uf = 1
  end
