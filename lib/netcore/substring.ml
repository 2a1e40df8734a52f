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
