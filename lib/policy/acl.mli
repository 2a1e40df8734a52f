(** Extended IP access control lists in the vendor-neutral IR.

    An entry matches on protocol, source prefix, destination prefix and an
    optional destination-port range; entries apply first-match with an
    implicit deny, like route maps. ACLs attach to interfaces per
    direction. *)

open Netcore

type port_match = Any_port | Eq of int | Port_range of int * int

type proto_match = Any_proto | Proto of Packet.proto

type entry = {
  seq : int;
  action : Action.t;
  proto : proto_match;
  src : Prefix.t;  (** Source addresses inside this prefix. *)
  dst : Prefix.t;
  dst_port : port_match;
}

type t = { name : string; entries : entry list }

val make : string -> entry list -> t
(** Sorts by sequence number; raises [Invalid_argument] on duplicates. *)

val entry :
  ?action:Action.t ->
  ?proto:proto_match ->
  ?src:Prefix.t ->
  ?dst:Prefix.t ->
  ?dst_port:port_match ->
  int ->
  entry
(** Defaults: permit, any protocol, any source/destination ([0.0.0.0/0]),
    any port. *)

val permits : t -> Packet.t -> bool
(** First matching entry decides; implicit deny. *)
