(** Data-plane packets, the value space of access control lists. *)

type proto = Tcp | Udp | Icmp | Other

type t = {
  src : Ipv4.t;
  dst : Ipv4.t;
  proto : proto;
  dst_port : int;  (** 0 when the protocol has no ports. *)
}

val proto_to_string : proto -> string
val proto_of_string : string -> proto option
(** Recognises ["tcp"], ["udp"], ["icmp"]; anything else is [None] (the
    dialects map their catch-all keyword ["ip"] to "all protocols"
    themselves). *)

val all_protos : proto list
val to_string : t -> string
