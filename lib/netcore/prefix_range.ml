type t = { base : Prefix.t; ge : int; le : int }

let make base ~ge ~le =
  if not (Prefix.len base <= ge && ge <= le && le <= 32) then
    invalid_arg
      (Printf.sprintf "Prefix_range.make: invalid bounds %s ge %d le %d"
         (Prefix.to_string base) ge le);
  { base; ge; le }

let exact base = { base; ge = Prefix.len base; le = Prefix.len base }
let orlonger base = { base; ge = Prefix.len base; le = 32 }
let ge base n = make base ~ge:n ~le:32
let le base n = make base ~ge:(Prefix.len base) ~le:n
let matches r q = Prefix.subsumes r.base q && r.ge <= Prefix.len q && Prefix.len q <= r.le
let base r = r.base
let ge_bound r = r.ge
let le_bound r = r.le
let is_exact r = r.ge = Prefix.len r.base && r.le = Prefix.len r.base

let compare a b =
  match Prefix.compare a.base b.base with
  | 0 -> ( match Int.compare a.ge b.ge with 0 -> Int.compare a.le b.le | c -> c)
  | c -> c

let equal a b = compare a b = 0
