type t = int list

let empty = []
let of_list l = l
let prepend asn p = asn :: p

let prepend_n asn k p =
  let rec go k acc = if k <= 0 then acc else go (k - 1) (asn :: acc) in
  go k p

let length = List.length
let mem = List.mem
let origin p = match List.rev p with [] -> None | x :: _ -> Some x
let head = function [] -> None | x :: _ -> Some x
let to_string p = String.concat " " (List.map string_of_int p)

let of_string s =
  let parts = String.split_on_char ' ' s |> List.filter (fun x -> x <> "") in
  let rec go acc = function
    | [] -> Some (List.rev acc)
    | x :: rest -> (
        match int_of_string_opt x with
        | Some n when n >= 0 -> go (n :: acc) rest
        | _ -> None)
  in
  go [] parts

(* The [_] metacharacter of vendor AS-path regexes matches "a delimiter":
   beginning of string, end of string, or the space between two AS numbers.
   We desugar it before handing the expression to [Re.Posix]. *)
let desugar regex =
  let buf = Buffer.create (String.length regex * 2) in
  String.iter
    (fun c ->
      match c with
      | '_' -> Buffer.add_string buf "(^| |$)"
      | c -> Buffer.add_char buf c)
    regex;
  Buffer.contents buf

let matches ~regex p =
  let re =
    try Re.Posix.compile_pat (desugar regex)
    with Re.Posix.Parse_error | Re.Posix.Not_supported ->
      invalid_arg (Printf.sprintf "As_path.matches: bad regex %S" regex)
  in
  Re.execp re (to_string p)
