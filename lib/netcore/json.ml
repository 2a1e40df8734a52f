type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of int * string

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let escape_string s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let float_to_string f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.17g" f

let to_string ?(pretty = false) v =
  let buf = Buffer.create 256 in
  let indent n = Buffer.add_string buf (String.make (2 * n) ' ') in
  let nl () = if pretty then Buffer.add_char buf '\n' in
  let rec go depth v =
    match v with
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (string_of_bool b)
    | Int n -> Buffer.add_string buf (string_of_int n)
    | Float f -> Buffer.add_string buf (float_to_string f)
    | String s -> Buffer.add_string buf (escape_string s)
    | List [] -> Buffer.add_string buf "[]"
    | List items ->
        Buffer.add_char buf '[';
        nl ();
        List.iteri
          (fun i item ->
            if i > 0 then (
              Buffer.add_char buf ',';
              nl ());
            if pretty then indent (depth + 1);
            go (depth + 1) item)
          items;
        nl ();
        if pretty then indent depth;
        Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj fields ->
        Buffer.add_char buf '{';
        nl ();
        List.iteri
          (fun i (k, item) ->
            if i > 0 then (
              Buffer.add_char buf ',';
              nl ());
            if pretty then indent (depth + 1);
            Buffer.add_string buf (escape_string k);
            Buffer.add_string buf (if pretty then ": " else ":");
            go (depth + 1) item)
          fields;
        nl ();
        if pretty then indent depth;
        Buffer.add_char buf '}'
  in
  go 0 v;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

type state = { src : string; mutable pos : int }

let fail st msg = raise (Parse_error (st.pos, msg))
let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\n' | '\r') ->
      advance st;
      skip_ws st
  | _ -> ()

let expect st c =
  match peek st with
  | Some c' when c' = c -> advance st
  | Some c' -> fail st (Printf.sprintf "expected %c, found %c" c c')
  | None -> fail st (Printf.sprintf "expected %c, found end of input" c)

let parse_literal st word value =
  let n = String.length word in
  if st.pos + n <= String.length st.src && String.sub st.src st.pos n = word then (
    st.pos <- st.pos + n;
    value)
  else fail st (Printf.sprintf "invalid literal (expected %s)" word)

let parse_string_body st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> fail st "unterminated string"
    | Some '"' ->
        advance st;
        Buffer.contents buf
    | Some '\\' -> (
        advance st;
        match peek st with
        | Some '"' ->
            Buffer.add_char buf '"';
            advance st;
            go ()
        | Some '\\' ->
            Buffer.add_char buf '\\';
            advance st;
            go ()
        | Some '/' ->
            Buffer.add_char buf '/';
            advance st;
            go ()
        | Some 'n' ->
            Buffer.add_char buf '\n';
            advance st;
            go ()
        | Some 't' ->
            Buffer.add_char buf '\t';
            advance st;
            go ()
        | Some 'r' ->
            Buffer.add_char buf '\r';
            advance st;
            go ()
        | Some 'b' ->
            Buffer.add_char buf '\b';
            advance st;
            go ()
        | Some 'f' ->
            Buffer.add_char buf '\012';
            advance st;
            go ()
        | Some 'u' ->
            advance st;
            if st.pos + 4 > String.length st.src then fail st "truncated \\u escape";
            let hex = String.sub st.src st.pos 4 in
            (match int_of_string_opt ("0x" ^ hex) with
            | Some code when code < 0x80 -> Buffer.add_char buf (Char.chr code)
            | Some _ ->
                (* Non-ASCII escapes are preserved as '?': the topology format
                   never uses them, and lossy beats failing here. *)
                Buffer.add_char buf '?'
            | None -> fail st "bad \\u escape");
            st.pos <- st.pos + 4;
            go ()
        | _ -> fail st "bad escape")
    | Some c ->
        Buffer.add_char buf c;
        advance st;
        go ()
  in
  go ()

let is_number_char = function
  | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
  | _ -> false

let parse_number st =
  let start = st.pos in
  let rec go () =
    match peek st with
    | Some c when is_number_char c ->
        advance st;
        go ()
    | _ -> ()
  in
  go ();
  let text = String.sub st.src start (st.pos - start) in
  match int_of_string_opt text with
  | Some n -> Int n
  | None -> (
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> fail st (Printf.sprintf "bad number %S" text))

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> fail st "unexpected end of input"
  | Some '{' -> parse_obj st
  | Some '[' -> parse_list st
  | Some '"' -> String (parse_string_body st)
  | Some 't' -> parse_literal st "true" (Bool true)
  | Some 'f' -> parse_literal st "false" (Bool false)
  | Some 'n' -> parse_literal st "null" Null
  | Some c when is_number_char c -> parse_number st
  | Some c -> fail st (Printf.sprintf "unexpected character %c" c)

and parse_obj st =
  expect st '{';
  skip_ws st;
  if peek st = Some '}' then (
    advance st;
    Obj [])
  else
    let rec fields acc =
      skip_ws st;
      let key = parse_string_body st in
      skip_ws st;
      expect st ':';
      let v = parse_value st in
      skip_ws st;
      match peek st with
      | Some ',' ->
          advance st;
          fields ((key, v) :: acc)
      | Some '}' ->
          advance st;
          Obj (List.rev ((key, v) :: acc))
      | _ -> fail st "expected , or } in object"
    in
    fields []

and parse_list st =
  expect st '[';
  skip_ws st;
  if peek st = Some ']' then (
    advance st;
    List [])
  else
    let rec items acc =
      let v = parse_value st in
      skip_ws st;
      match peek st with
      | Some ',' ->
          advance st;
          items (v :: acc)
      | Some ']' ->
          advance st;
          List (List.rev (v :: acc))
      | _ -> fail st "expected , or ] in array"
    in
    items []

let of_string_exn s =
  let st = { src = s; pos = 0 } in
  let v = parse_value st in
  skip_ws st;
  if st.pos <> String.length s then fail st "trailing characters";
  v

let of_string s =
  match of_string_exn s with
  | v -> Ok v
  | exception Parse_error (pos, msg) ->
      Error (Printf.sprintf "JSON parse error at offset %d: %s" pos msg)

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

let member k = function Obj fields -> List.assoc_opt k fields | _ -> None
let to_int = function Int n -> Some n | _ -> None
let to_float = function Float f -> Some f | Int n -> Some (float_of_int n) | _ -> None
let to_bool = function Bool b -> Some b | _ -> None
let to_str = function String s -> Some s | _ -> None
let to_list = function List l -> Some l | _ -> None
let to_obj = function Obj o -> Some o | _ -> None

let member_exn k v =
  match member k v with
  | Some x -> x
  | None -> invalid_arg (Printf.sprintf "Json.member_exn: missing key %S" k)

let int_exn v =
  match to_int v with Some n -> n | None -> invalid_arg "Json.int_exn: not an int"

let str_exn v =
  match to_str v with Some s -> s | None -> invalid_arg "Json.str_exn: not a string"

let list_exn v =
  match to_list v with Some l -> l | None -> invalid_arg "Json.list_exn: not a list"
