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

(* Exactly three dots, four octets each 0-255 as [int_of_string_opt] reads
   them, scanned in place. *)
let of_string s =
  let n = String.length s in
  let d1 = Substring.index_char s '.' 0 in
  let d2 = if d1 < 0 then -1 else Substring.index_char s '.' (d1 + 1) in
  let d3 = if d2 < 0 then -1 else Substring.index_char s '.' (d2 + 1) in
  if d3 < 0 || Substring.index_char s '.' (d3 + 1) >= 0 then None
  else
    let a = Substring.bounded_int s 0 d1 ~max:255
    and b = Substring.bounded_int s (d1 + 1) d2 ~max:255
    and c = Substring.bounded_int s (d2 + 1) d3 ~max:255
    and d = Substring.bounded_int s (d3 + 1) n ~max:255 in
    if a < 0 || b < 0 || c < 0 || d < 0 then None
    else Some ((a lsl 24) lor (b lsl 16) lor (c lsl 8) lor d)

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
