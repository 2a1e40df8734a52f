open Netcore

type port_match = Any_port | Eq of int | Port_range of int * int
type proto_match = Any_proto | Proto of Packet.proto

type entry = {
  seq : int;
  action : Action.t;
  proto : proto_match;
  src : Prefix.t;
  dst : Prefix.t;
  dst_port : port_match;
}

type t = { name : string; entries : entry list }

let make name entries =
  let entries = List.sort (fun a b -> Int.compare a.seq b.seq) entries in
  let rec check = function
    | a :: (b :: _ as rest) ->
        if a.seq = b.seq then
          invalid_arg (Printf.sprintf "Acl.make: duplicate seq %d in %s" a.seq name);
        check rest
    | _ -> ()
  in
  check entries;
  { name; entries }

let entry ?(action = Action.Permit) ?(proto = Any_proto) ?(src = Prefix.default)
    ?(dst = Prefix.default) ?(dst_port = Any_port) seq =
  { seq; action; proto; src; dst; dst_port }

let port_matches pm port =
  match pm with
  | Any_port -> true
  | Eq p -> port = p
  | Port_range (lo, hi) -> lo <= port && port <= hi

let proto_matches pm proto =
  match pm with Any_proto -> true | Proto p -> p = proto

let entry_matches e (pkt : Packet.t) =
  proto_matches e.proto pkt.Packet.proto
  && Prefix.contains_addr e.src pkt.Packet.src
  && Prefix.contains_addr e.dst pkt.Packet.dst
  && port_matches e.dst_port pkt.Packet.dst_port

let matching_entry t pkt = List.find_opt (fun e -> entry_matches e pkt) t.entries

let permits t pkt =
  match matching_entry t pkt with Some e -> e.action = Action.Permit | None -> false
