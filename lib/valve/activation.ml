type status = Open | Closed | Dont_care

let status_compatible a b =
  match a, b with
  | Dont_care, _ | _, Dont_care -> true
  | Open, Open | Closed, Closed -> true
  | Open, Closed | Closed, Open -> false

let char_of_status = function Open -> '0' | Closed -> '1' | Dont_care -> 'X'

let status_of_char = function
  | '0' -> Ok Open
  | '1' -> Ok Closed
  | 'X' | 'x' -> Ok Dont_care
  | c -> Error (Printf.sprintf "invalid activation status %C (want 0, 1 or X)" c)

type sequence = status array

let sequence_of_string s =
  let n = String.length s in
  let rec go i acc =
    if i < 0 then Ok (Array.of_list acc)
    else
      match status_of_char s.[i] with
      | Ok st -> go (i - 1) (st :: acc)
      | Error _ as e -> e
  in
  if n = 0 then Error "empty activation sequence" else go (n - 1) []

let string_of_sequence seq = String.init (Array.length seq) (fun i -> char_of_status seq.(i))

let compatible a b =
  Array.length a = Array.length b
  && begin
    let rec go i = i >= Array.length a || (status_compatible a.(i) b.(i) && go (i + 1)) in
    go 0
  end
