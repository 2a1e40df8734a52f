open Netcore

type atom = { base : Prefix.t; lens : Len_set.t }
type t = atom list

let mk_atom base lens =
  let lens = Len_set.restrict_ge (Prefix.len base) lens in
  if Len_set.is_empty lens then [] else [ { base; lens } ]

let empty = []
let full = mk_atom Prefix.default Len_set.full
let atom base lens = mk_atom base lens

let of_range r =
  mk_atom (Prefix_range.base r)
    (Len_set.range (Prefix_range.ge_bound r) (Prefix_range.le_bound r))

(* Merge atoms sharing a base so spaces stay small under repeated union. *)
let compact t =
  let sorted = List.sort (fun a b -> Prefix.compare a.base b.base) t in
  let rec go = function
    | a :: b :: rest when Prefix.equal a.base b.base ->
        go ({ base = a.base; lens = Len_set.union a.lens b.lens } :: rest)
    | a :: rest -> a :: go rest
    | [] -> []
  in
  go sorted

let union a b = compact (a @ b)

let inter_atom a b =
  let deeper =
    if Prefix.subsumes a.base b.base then Some b.base
    else if Prefix.subsumes b.base a.base then Some a.base
    else None
  in
  match deeper with
  | None -> []
  | Some base -> mk_atom base (Len_set.inter a.lens b.lens)

let inter a b = compact (List.concat_map (fun x -> List.concat_map (inter_atom x) b) a)

(* Flip the [d]-th most significant bit of an address (0-indexed). *)
let flip_bit addr d = Ipv4.of_int (Ipv4.to_int addr lxor (1 lsl (31 - d)))

(* a \ b for single atoms. Three cases: disjoint bases, [b] covering [a]'s
   base, or [b] strictly below [a] — the last one peels the path from
   [a.base] down to [b.base], keeping path prefixes and sibling subtrees. *)
let diff_atom a b =
  if not (Prefix.overlaps a.base b.base) then [ a ]
  else if Prefix.subsumes b.base a.base then
    mk_atom a.base (Len_set.diff a.lens b.lens)
  else
    let la = Prefix.len a.base and lb = Prefix.len b.base in
    let target = Prefix.addr b.base in
    let rec peel d acc =
      if d >= lb then acc
      else
        let path_prefix = Prefix.make target d in
        let on_path =
          if Len_set.mem d a.lens then
            mk_atom path_prefix (Len_set.singleton d)
          else []
        in
        let sibling = Prefix.make (flip_bit target d) (d + 1) in
        let sibling_atoms = mk_atom sibling a.lens in
        peel (d + 1) (on_path @ sibling_atoms @ acc)
    in
    let under_b = mk_atom b.base (Len_set.diff a.lens b.lens) in
    peel la under_b

let diff a b = compact (List.fold_left (fun acc x -> List.concat_map (fun y -> diff_atom y x) acc) a b)

let is_empty t = t = []
let mem p t = List.exists (fun a -> Prefix.subsumes a.base p && Len_set.mem (Prefix.len p) a.lens) t

let sample = function
  | [] -> None
  | a :: _ -> (
      match Len_set.min_elt a.lens with
      | Some l -> Some (Prefix.make (Prefix.addr a.base) l)
      | None -> None)

let atoms t = t
