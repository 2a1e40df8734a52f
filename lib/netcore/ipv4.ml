type t = int

let max32 = 0xFFFFFFFF
let zero = 0
let of_int n = n land max32
let to_int a = a

let of_octets a b c d =
  let check o =
    if o < 0 || o > 255 then invalid_arg "Ipv4.of_octets: octet out of range"
  in
  check a;
  check b;
  check c;
  check d;
  (a lsl 24) lor (b lsl 16) lor (c lsl 8) lor d

let to_octets a = ((a lsr 24) land 0xFF, (a lsr 16) land 0xFF, (a lsr 8) land 0xFF, a land 0xFF)

let of_string s =
  match String.split_on_char '.' s with
  | [ a; b; c; d ] -> (
      let octet x =
        match int_of_string_opt x with
        | Some v when v >= 0 && v <= 255 && String.length x > 0 -> Some v
        | _ -> None
      in
      match (octet a, octet b, octet c, octet d) with
      | Some a, Some b, Some c, Some d -> Some (of_octets a b c d)
      | _ -> None)
  | _ -> None

let of_string_exn s =
  match of_string s with
  | Some a -> a
  | None -> invalid_arg (Printf.sprintf "Ipv4.of_string_exn: %S" s)

let add_to_buffer b a =
  Buf.add_int b ((a lsr 24) land 0xFF);
  Buffer.add_char b '.';
  Buf.add_int b ((a lsr 16) land 0xFF);
  Buffer.add_char b '.';
  Buf.add_int b ((a lsr 8) land 0xFF);
  Buffer.add_char b '.';
  Buf.add_int b (a land 0xFF)

let to_string a =
  let b = Buffer.create 15 in
  add_to_buffer b a;
  Buffer.contents b

let compare = Int.compare
let equal = Int.equal
let succ a = (a + 1) land max32
let bit a i = (a lsr (31 - i)) land 1 = 1
let mask n = if n <= 0 then 0 else (max32 lsl (32 - n)) land max32
let logor a b = a lor b
let lognot a = lnot a land max32
let network a len = a land mask len
