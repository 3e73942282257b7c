open Pacor_geom
open Pacor_grid

(* One bump: find an edge [p -> q] of the path and a side [s] (unit vector
   perpendicular to the edge) such that both [p + s] and [q + s] are usable
   and not already on the path; replace the edge with the three-edge U. *)
let find_bump path ~usable =
  let pts = Array.of_list (Path.points path) in
  let n = Array.length pts in
  let ok c = usable c && not (Path.mem path c) in
  let rec scan i =
    if i >= n - 1 then None
    else begin
      let p = pts.(i) and q = pts.(i + 1) in
      let dir = Point.sub q p in
      let sides =
        if dir.x <> 0 then [ Point.make 0 1; Point.make 0 (-1) ]
        else [ Point.make 1 0; Point.make (-1) 0 ]
      in
      let try_side s =
        let p' = Point.add p s and q' = Point.add q s in
        if ok p' && ok q' && not (Point.equal p' q') then Some (i, p', q') else None
      in
      match List.find_map try_side sides with
      | Some bump -> Some bump
      | None -> scan (i + 1)
    end
  in
  scan 0

let insert_bump path (i, p', q') =
  let seg =
    Path.of_points [ Path.nth path i; p'; q'; Path.nth path (i + 1) ]
  in
  Path.replace_segment path ~from_idx:i ~to_idx:(i + 1) seg

let lengthen path ~target ~usable =
  let rec go path =
    if Path.length path >= target then Some path
    else
      match find_bump path ~usable with
      | None -> None
      | Some bump -> go (insert_bump path bump)
  in
  go path
