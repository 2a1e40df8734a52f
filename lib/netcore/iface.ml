type kind = Ethernet | FastEthernet | GigabitEthernet | Loopback
type t = { kind : kind; slot : int; port : int }

let ethernet ~slot ~port = { kind = Ethernet; slot; port }
let loopback n = { kind = Loopback; slot = n; port = 0 }

let cisco_name i =
  match i.kind with
  | Ethernet -> Printf.sprintf "Ethernet%d/%d" i.slot i.port
  | FastEthernet -> Printf.sprintf "FastEthernet%d/%d" i.slot i.port
  | GigabitEthernet -> Printf.sprintf "GigabitEthernet%d/%d" i.slot i.port
  | Loopback -> Printf.sprintf "Loopback%d" i.slot

let junos_name i =
  match i.kind with
  | Ethernet | FastEthernet -> Printf.sprintf "ge-0/%d/%d.0" i.slot i.port
  | GigabitEthernet -> Printf.sprintf "ge-%d/0/%d.0" i.slot i.port
  | Loopback -> Printf.sprintf "lo%d.0" i.slot

let lowercase = String.lowercase_ascii

(* Split a name like "ethernet0/1" into its alphabetic head and the numeric
   tail starting at the first digit. *)
let split_name s =
  let n = String.length s in
  let rec first_digit i =
    if i >= n then n
    else match s.[i] with '0' .. '9' -> i | _ -> first_digit (i + 1)
  in
  let i = first_digit 0 in
  (String.sub s 0 i, String.sub s i (n - i))

let parse_slot_port tail =
  match String.split_on_char '/' tail with
  | [ s; p ] -> (
      match (int_of_string_opt s, int_of_string_opt p) with
      | Some s, Some p when s >= 0 && p >= 0 -> Some (s, p)
      | _ -> None)
  | _ -> None

let of_cisco s =
  let head, tail = split_name (String.trim s) in
  let kind =
    match lowercase head with
    | "ethernet" | "eth" | "e" -> Some Ethernet
    | "fastethernet" | "fa" -> Some FastEthernet
    | "gigabitethernet" | "gi" | "ge" -> Some GigabitEthernet
    | "loopback" | "lo" -> Some Loopback
    | _ -> None
  in
  match kind with
  | Some Loopback -> (
      match int_of_string_opt tail with
      | Some n when n >= 0 -> Some (loopback n)
      | _ -> None)
  | Some kind ->
      Option.map (fun (slot, port) -> { kind; slot; port }) (parse_slot_port tail)
  | None -> None

let strip_unit s =
  match String.index_opt s '.' with Some i -> String.sub s 0 i | None -> s

let of_junos s =
  let s = strip_unit (String.trim s) in
  if String.length s > 2 && String.sub s 0 2 = "lo" then
    match int_of_string_opt (String.sub s 2 (String.length s - 2)) with
    | Some n when n >= 0 -> Some (loopback n)
    | _ -> None
  else
    match String.split_on_char '-' s with
    | [ "ge"; rest ] -> (
        match String.split_on_char '/' rest with
        | [ a; b; c ] -> (
            match (int_of_string_opt a, int_of_string_opt b, int_of_string_opt c) with
            | Some 0, Some slot, Some port -> Some { kind = Ethernet; slot; port }
            | Some slot, Some 0, Some port -> Some { kind = GigabitEthernet; slot; port }
            | _ -> None)
        | _ -> None)
    | _ -> None

let is_loopback i = i.kind = Loopback
let compare = Stdlib.compare
let equal a b = compare a b = 0

module Map = Map.Make (struct
  type nonrec t = t

  let compare = compare
end)
