type t = { asn : int; value : int }

let make asn value =
  if asn < 0 || asn > 0xFFFF || value < 0 || value > 0xFFFF then
    invalid_arg "Community.make: halves must fit in 16 bits";
  { asn; value }

(* Exactly one colon between two halves, each 0-65535 as
   [int_of_string_opt] reads it, scanned in place. *)
let of_string s =
  let colon = Substring.index_char s ':' 0 in
  if colon < 0 || Substring.index_char s ':' (colon + 1) >= 0 then None
  else
    let asn = Substring.bounded_int s 0 colon ~max:0xFFFF
    and value = Substring.bounded_int s (colon + 1) (String.length s) ~max:0xFFFF in
    if asn < 0 || value < 0 then None else Some { asn; value }

let add_to_buffer b c =
  Buf.add_int b c.asn;
  Buffer.add_char b ':';
  Buf.add_int b c.value

let to_string c =
  let b = Buffer.create 11 in
  add_to_buffer b c;
  Buffer.contents b

let compare a b =
  match Int.compare a.asn b.asn with 0 -> Int.compare a.value b.value | c -> c

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = struct
  include Set.Make (Ord)

  let to_string s = String.concat " " (List.map to_string (elements s))
  let pp ppf s = Format.pp_print_string ppf (to_string s)
end
