type t = int
(* Bit i set <=> length i is in the set; i in 0..32 fits a 63-bit int. *)

let all_mask = (1 lsl 33) - 1
let empty = 0
let full = all_mask
let clamp n = if n < 0 then 0 else if n > 32 then 32 else n

let singleton n =
  if n < 0 || n > 32 then invalid_arg "Len_set.singleton" else 1 lsl n

let range lo hi =
  if lo > hi then empty
  else
    let lo = clamp lo and hi = clamp hi in
    (all_mask lsr (32 - hi)) land lnot ((1 lsl lo) - 1)

let mem n t = n >= 0 && n <= 32 && (t lsr n) land 1 = 1
let inter a b = a land b
let union a b = a lor b
let diff a b = a land lnot b
let is_empty t = t = 0

let min_elt t =
  if t = 0 then None
  else
    let rec go i = if (t lsr i) land 1 = 1 then Some i else go (i + 1) in
    go 0

let to_list t =
  let rec go acc i = if i < 0 then acc else go (if mem i t then i :: acc else acc) (i - 1) in
  go [] 32

let restrict_ge n t = inter t (range n 32)
