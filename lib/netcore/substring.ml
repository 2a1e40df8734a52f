(* Closed scanners build no closure per call. [index_from] needs a
   non-empty [sub]; -1 means no occurrence. *)
let rec matches_at s sub i j =
  j = String.length sub || (s.[i + j] = sub.[j] && matches_at s sub i (j + 1))

let rec index_from s sub i =
  if i + String.length sub > String.length s then -1
  else if s.[i] = sub.[0] && matches_at s sub i 1 then i
  else index_from s sub (i + 1)

let find ~sub s =
  if sub = "" then Some 0 else match index_from s sub 0 with -1 -> None | i -> Some i

let contains ~sub s = sub = "" || index_from s sub 0 >= 0

let rec index_char s c i =
  if i >= String.length s then -1 else if s.[i] = c then i else index_char s c (i + 1)

(* The value of the decimal digits [s.[i, hi)] added to [acc], or -1 at a
   character that is not a digit. *)
let rec decimal s i hi acc =
  if i = hi then acc
  else
    match s.[i] with
    | '0' .. '9' as c -> decimal s (i + 1) hi ((acc * 10) + Char.code c - 48)
    | _ -> -1

(* Up to 6 digits cannot overflow, and [int_of_string] reads them as plain
   decimal; anything else (signs, radix prefixes, underscores, longer
   numbers) goes to [int_of_string_opt] itself. *)
let bounded_int s lo hi ~max =
  let v = if hi > lo && hi - lo <= 6 then decimal s lo hi 0 else -1 in
  if v >= 0 then if v <= max then v else -1
  else
    match int_of_string_opt (String.sub s lo (hi - lo)) with
    | Some v when v >= 0 && v <= max -> v
    | _ -> -1
