type t = { addr : Ipv4.t; len : int }

let make addr len =
  if len < 0 || len > 32 then invalid_arg "Prefix.make: length out of range";
  { addr = Ipv4.network addr len; len }

let addr p = p.addr
let len p = p.len

let of_string s =
  match String.index_opt s '/' with
  | None -> Option.map (fun a -> make a 32) (Ipv4.of_string s)
  | Some i -> (
      let a = String.sub s 0 i in
      let l = String.sub s (i + 1) (String.length s - i - 1) in
      match (Ipv4.of_string a, int_of_string_opt l) with
      | Some a, Some l when l >= 0 && l <= 32 -> Some (make a l)
      | _ -> None)

let of_string_exn s =
  match of_string s with
  | Some p -> p
  | None -> invalid_arg (Printf.sprintf "Prefix.of_string_exn: %S" s)

let add_to_buffer b p =
  Ipv4.add_to_buffer b p.addr;
  Buffer.add_char b '/';
  Buf.add_int b p.len

let to_string p =
  let b = Buffer.create 18 in
  add_to_buffer b p;
  Buffer.contents b
let default = { addr = Ipv4.zero; len = 0 }
let host a = { addr = a; len = 32 }
let contains_addr p a = Ipv4.equal (Ipv4.network a p.len) p.addr
let subsumes p q = p.len <= q.len && Ipv4.equal (Ipv4.network q.addr p.len) p.addr
let overlaps p q = subsumes p q || subsumes q p
let last p = Ipv4.logor p.addr (Ipv4.lognot (Ipv4.mask p.len))

let split p =
  if p.len = 32 then None
  else
    let len = p.len + 1 in
    let low = { addr = p.addr; len } in
    let high = { addr = Ipv4.logor p.addr (Ipv4.of_int (1 lsl (32 - len))); len } in
    Some (low, high)

let nth_host p i =
  let size = if p.len = 0 then 1 lsl 32 else 1 lsl (32 - p.len) in
  if i < 0 || i >= size then invalid_arg "Prefix.nth_host: out of range";
  Ipv4.of_int (Ipv4.to_int p.addr + i)

let compare p q =
  match Ipv4.compare p.addr q.addr with 0 -> Int.compare p.len q.len | c -> c

let equal p q = compare p q = 0

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)
