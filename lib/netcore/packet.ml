type proto = Tcp | Udp | Icmp | Other

type t = { src : Ipv4.t; dst : Ipv4.t; proto : proto; dst_port : int }

let proto_to_string = function
  | Tcp -> "tcp"
  | Udp -> "udp"
  | Icmp -> "icmp"
  | Other -> "other"

let proto_of_string = function
  | "tcp" -> Some Tcp
  | "udp" -> Some Udp
  | "icmp" -> Some Icmp
  | _ -> None

let all_protos = [ Tcp; Udp; Icmp; Other ]

let to_string p =
  Printf.sprintf "%s %s -> %s port %d" (proto_to_string p.proto) (Ipv4.to_string p.src)
    (Ipv4.to_string p.dst) p.dst_port
