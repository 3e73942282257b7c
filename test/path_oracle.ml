(* Brute-force reference for bounded-length routing on small grids: a
   depth-first enumeration of simple paths that shares no code with the
   routers. Cells are row-major indices into a [width] x [height] grid.

   [exists_at_least] is true iff some simple [source]-[target] path whose
   interior cells are all [free] has at least [min_length] edges. It stops
   at the first such path, and prunes a prefix once the target is no
   longer reachable around it, or once even visiting every cell still
   reachable could not reach the bound. *)

let exists_at_least ~width ~height ~free ~source ~target ~min_length =
  let cells = width * height in
  let neighbours i =
    let x = i mod width and y = i / width in
    List.filter_map
      (fun (dx, dy) ->
         let x' = x + dx and y' = y + dy in
         if x' >= 0 && x' < width && y' >= 0 && y' < height then Some ((y' * width) + x')
         else None)
      [ (1, 0); (-1, 0); (0, 1); (0, -1) ]
  in
  let on_path = Array.make cells false in
  let open_cell j = (not on_path.(j)) && (j = target || free j) in
  (* Cells reachable from [i] off the current path, the target counted
     but not passed through, and whether the target is among them. *)
  let reach i =
    let seen = Array.make cells false in
    let count = ref 0 and hit = ref false in
    let rec visit j =
      if not seen.(j) then begin
        seen.(j) <- true;
        incr count;
        if j = target then hit := true
        else List.iter (fun k -> if open_cell k then visit k) (neighbours j)
      end
    in
    List.iter (fun k -> if open_cell k then visit k) (neighbours i);
    (!count, !hit)
  in
  let exception Found in
  let rec extend i len =
    if i = target then begin
      if len >= min_length then raise Found
    end
    else begin
      on_path.(i) <- true;
      let count, hit = reach i in
      if hit && len + count >= min_length then
        List.iter (fun j -> if open_cell j then extend j (len + 1)) (neighbours i);
      on_path.(i) <- false
    end
  in
  if source = target then min_length = 0
  else
    match extend source 0 with
    | () -> false
    | exception Found -> true
