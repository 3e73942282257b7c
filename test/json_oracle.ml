(* The line-protocol JSON codec as it stood before its emitter copied the
   bytes between escapes as runs and its parser read escapes without
   [peek], both into one scratch buffer per domain: here every byte is
   one [String.iter] step and every string a fresh [Buffer]. Kept
   verbatim as the oracle [Pacor_serve.Json] must match byte for byte
   (emitter) and value for value, error message included (parser). *)

type t = Pacor_serve.Json.t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ---------- emission ---------- *)

let add_utf8 buf cp =
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else if cp < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end

let escape_to buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
       match c with
       | '"' -> Buffer.add_string buf "\\\""
       | '\\' -> Buffer.add_string buf "\\\\"
       | '\n' -> Buffer.add_string buf "\\n"
       | '\r' -> Buffer.add_string buf "\\r"
       | '\t' -> Buffer.add_string buf "\\t"
       | '\b' -> Buffer.add_string buf "\\b"
       | '\012' -> Buffer.add_string buf "\\f"
       | c when Char.code c < 0x20 ->
         Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
       | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let float_to_string f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.12g" f

let rec to_buffer buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
    (* JSON has no NaN / infinity; [null] is the least-lying encoding. *)
    if Float.is_nan f || f = Float.infinity || f = Float.neg_infinity then
      Buffer.add_string buf "null"
    else Buffer.add_string buf (float_to_string f)
  | String s -> escape_to buf s
  | List items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i v ->
         if i > 0 then Buffer.add_char buf ',';
         to_buffer buf v)
      items;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
         if i > 0 then Buffer.add_char buf ',';
         escape_to buf k;
         Buffer.add_char buf ':';
         to_buffer buf v)
      fields;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  to_buffer buf v;
  Buffer.contents buf

(* ---------- parsing ---------- *)

exception Fail of string

type cursor = { s : string; mutable i : int }

let fail cur fmt =
  Printf.ksprintf (fun m -> raise (Fail (Printf.sprintf "at byte %d: %s" cur.i m))) fmt

let peek cur = if cur.i < String.length cur.s then Some cur.s.[cur.i] else None

let advance cur = cur.i <- cur.i + 1

let skip_ws cur =
  while
    cur.i < String.length cur.s
    && (match cur.s.[cur.i] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
  do
    advance cur
  done

let expect cur c =
  match peek cur with
  | Some d when d = c -> advance cur
  | Some d -> fail cur "expected %C, got %C" c d
  | None -> fail cur "expected %C, got end of input" c

let literal cur word value =
  let n = String.length word in
  if cur.i + n <= String.length cur.s && String.sub cur.s cur.i n = word then begin
    cur.i <- cur.i + n;
    value
  end
  else fail cur "expected %s" word

let hex4 cur =
  if cur.i + 4 > String.length cur.s then fail cur "truncated \\u escape";
  let v = ref 0 in
  for k = cur.i to cur.i + 3 do
    let d =
      match cur.s.[k] with
      | '0' .. '9' as c -> Char.code c - Char.code '0'
      | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
      | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
      | c -> fail cur "bad hex digit %C in \\u escape" c
    in
    v := (!v * 16) + d
  done;
  cur.i <- cur.i + 4;
  !v

(* The end of the run of characters from [i] that need no unescaping. *)
let rec plain_run s i n =
  if i < n && (match String.unsafe_get s i with '"' | '\\' -> false | _ -> true) then
    plain_run s (i + 1) n
  else i

let parse_string cur =
  expect cur '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek cur with
    | None -> fail cur "unterminated string"
    | Some '"' -> advance cur
    | Some '\\' ->
      advance cur;
      (match peek cur with
       | None -> fail cur "unterminated escape"
       | Some c ->
         advance cur;
         (match c with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | '/' -> Buffer.add_char buf '/'
          | 'n' -> Buffer.add_char buf '\n'
          | 'r' -> Buffer.add_char buf '\r'
          | 't' -> Buffer.add_char buf '\t'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'u' ->
            let cp = hex4 cur in
            (* Surrogate pair: a high surrogate must be followed by
               [\uDC00-\uDFFF]; anything else is kept as-is (lenient). *)
            if cp >= 0xD800 && cp <= 0xDBFF
               && cur.i + 6 <= String.length cur.s
               && cur.s.[cur.i] = '\\'
               && cur.s.[cur.i + 1] = 'u'
            then begin
              let save = cur.i in
              cur.i <- cur.i + 2;
              let lo = hex4 cur in
              if lo >= 0xDC00 && lo <= 0xDFFF then
                add_utf8 buf (0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00))
              else begin
                cur.i <- save;
                add_utf8 buf cp
              end
            end
            else add_utf8 buf cp
          | c -> fail cur "bad escape \\%C" c);
         go ())
    | Some _ ->
      (* A run of plain characters is copied in one piece: a route
         request carries a whole instance text in one string. *)
      let start = cur.i in
      cur.i <- plain_run cur.s start (String.length cur.s);
      Buffer.add_substring buf cur.s start (cur.i - start);
      go ()
  in
  go ();
  Buffer.contents buf

let parse_number cur =
  let start = cur.i in
  let is_num_char = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while (match peek cur with Some c -> is_num_char c | None -> false) do
    advance cur
  done;
  let text = String.sub cur.s start (cur.i - start) in
  let is_float = String.exists (function '.' | 'e' | 'E' -> true | _ -> false) text in
  if is_float then
    match float_of_string_opt text with
    | Some f -> Float f
    | None -> fail cur "malformed number %S" text
  else
    match int_of_string_opt text with
    | Some i -> Int i
    | None ->
      (* Out of int range: degrade to float rather than error. *)
      (match float_of_string_opt text with
       | Some f -> Float f
       | None -> fail cur "malformed number %S" text)

let rec parse_value cur =
  skip_ws cur;
  match peek cur with
  | None -> fail cur "unexpected end of input"
  | Some '{' ->
    advance cur;
    skip_ws cur;
    if peek cur = Some '}' then begin
      advance cur;
      Obj []
    end
    else begin
      let rec fields acc =
        skip_ws cur;
        let k = parse_string cur in
        skip_ws cur;
        expect cur ':';
        let v = parse_value cur in
        skip_ws cur;
        match peek cur with
        | Some ',' ->
          advance cur;
          fields ((k, v) :: acc)
        | Some '}' ->
          advance cur;
          List.rev ((k, v) :: acc)
        | _ -> fail cur "expected ',' or '}' in object"
      in
      Obj (fields [])
    end
  | Some '[' ->
    advance cur;
    skip_ws cur;
    if peek cur = Some ']' then begin
      advance cur;
      List []
    end
    else begin
      let rec items acc =
        let v = parse_value cur in
        skip_ws cur;
        match peek cur with
        | Some ',' ->
          advance cur;
          items (v :: acc)
        | Some ']' ->
          advance cur;
          List.rev (v :: acc)
        | _ -> fail cur "expected ',' or ']' in array"
      in
      List (items [])
    end
  | Some '"' -> String (parse_string cur)
  | Some 't' -> literal cur "true" (Bool true)
  | Some 'f' -> literal cur "false" (Bool false)
  | Some 'n' -> literal cur "null" Null
  | Some ('-' | '0' .. '9') -> parse_number cur
  | Some c -> fail cur "unexpected character %C" c

let of_string s =
  let cur = { s; i = 0 } in
  try
    let v = parse_value cur in
    skip_ws cur;
    match peek cur with
    | None -> Ok v
    | Some c -> Error (Printf.sprintf "at byte %d: trailing %C after value" cur.i c)
  with
  | Fail m -> Error m
  | exn -> Error ("json: " ^ Printexc.to_string exn)
