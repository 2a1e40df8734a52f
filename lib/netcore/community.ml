type t = { asn : int; value : int }

let make asn value =
  if asn < 0 || asn > 0xFFFF || value < 0 || value > 0xFFFF then
    invalid_arg "Community.make: halves must fit in 16 bits";
  { asn; value }

let of_string s =
  match String.split_on_char ':' s with
  | [ a; v ] -> (
      match (int_of_string_opt a, int_of_string_opt v) with
      | Some a, Some v when a >= 0 && a <= 0xFFFF && v >= 0 && v <= 0xFFFF ->
          Some { asn = a; value = v }
      | _ -> None)
  | _ -> None

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
