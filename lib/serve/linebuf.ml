type t = {
  buf : Buffer.t;
  cap : int;
  mutable discarding : bool;
      (* an oversized line already fired Overflow; drop bytes until the
         newline that ends it *)
  mutable hw : int;  (* most bytes ever buffered: the bounded-memory gauge *)
}

type event = Line of string | Overflow

let default_max_line = 4 * 1024 * 1024

let create ?(max_line = default_max_line) () =
  if max_line <= 0 then invalid_arg "Linebuf.create: max_line must be positive";
  { buf = Buffer.create 256; cap = max_line; discarding = false; hw = 0 }

let pending t = Buffer.length t.buf
let high_water t = t.hw

let note_hw t = if Buffer.length t.buf > t.hw then t.hw <- Buffer.length t.buf

let feed t chunk off len =
  if off < 0 || len < 0 || off + len > Bytes.length chunk then
    invalid_arg "Linebuf.feed: bad slice";
  let events = ref [] in
  let emit e = events := e :: !events in
  let limit = off + len in
  let pos = ref off in
  while !pos < limit do
    let nl = Bytes.index_from_opt chunk !pos '\n' in
    match nl with
    | Some nl when nl < limit ->
      (* This chunk completes a line. *)
      if t.discarding then t.discarding <- false
      else begin
        let seg = nl - !pos in
        if Buffer.length t.buf + seg > t.cap then begin
          (* The completed line is over cap: one error, bytes dropped. The
             newline itself ends the discard, so no mode change needed. *)
          emit Overflow;
          Buffer.clear t.buf
        end
        else begin
          Buffer.add_subbytes t.buf chunk !pos seg;
          note_hw t;
          emit (Line (Buffer.contents t.buf));
          Buffer.clear t.buf
        end
      end;
      pos := nl + 1
    | Some _ | None ->
      (* No newline in the rest of the chunk. *)
      if not t.discarding then begin
        let seg = limit - !pos in
        if Buffer.length t.buf + seg > t.cap then begin
          emit Overflow;
          Buffer.clear t.buf;
          t.discarding <- true
        end
        else begin
          Buffer.add_subbytes t.buf chunk !pos seg;
          note_hw t
        end
      end;
      pos := limit
  done;
  List.rev !events

let feed_string t s = feed t (Bytes.unsafe_of_string s) 0 (String.length s)
