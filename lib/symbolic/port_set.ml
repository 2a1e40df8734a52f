type t = (int * int) list
(* Sorted, disjoint, non-adjacent intervals. *)

let max_port = 65535
let empty = []
let full = [ (0, max_port) ]
let clamp n = if n < 0 then 0 else if n > max_port then max_port else n

let range lo hi = if lo > hi then [] else [ (clamp lo, clamp hi) ]
let singleton p = range p p

(* Normalize a list of possibly overlapping intervals. *)
let normalize l =
  let sorted = List.sort compare l in
  let rec merge = function
    | (a1, b1) :: (a2, b2) :: rest when a2 <= b1 + 1 ->
        merge ((a1, max b1 b2) :: rest)
    | x :: rest -> x :: merge rest
    | [] -> []
  in
  merge sorted

let union a b = normalize (a @ b)

let inter a b =
  let rec go a b acc =
    match (a, b) with
    | [], _ | _, [] -> List.rev acc
    | (a1, b1) :: ra, (a2, b2) :: rb ->
        let lo = max a1 a2 and hi = min b1 b2 in
        let acc = if lo <= hi then (lo, hi) :: acc else acc in
        if b1 < b2 then go ra b acc else go a rb acc
  in
  go a b []

let complement t =
  let rec go cursor = function
    | [] -> if cursor <= max_port then [ (cursor, max_port) ] else []
    | (lo, hi) :: rest ->
        let before = if cursor <= lo - 1 then [ (cursor, lo - 1) ] else [] in
        before @ go (hi + 1) rest
  in
  go 0 t

let diff a b = inter a (complement b)
let mem p t = List.exists (fun (lo, hi) -> lo <= p && p <= hi) t
let is_empty t = t = []
let equal a b = normalize a = normalize b
let choose = function [] -> None | (lo, _) :: _ -> Some lo
