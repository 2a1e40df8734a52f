(** Whole-router configurations in the vendor-neutral IR.

    Both dialect front-ends lower to this representation; Campion, the
    topology verifier and the BGP simulator all operate on it. The scope
    matches the paper's: "behavior related to routing and forwarding"
    (interfaces, BGP, OSPF, routing policy), "ignoring potentially important
    features such as NTP servers". *)

open Netcore

type interface = {
  iface : Iface.t;
  address : (Ipv4.t * int) option;  (** Address and mask length. *)
  description : string option;
  shutdown : bool;
  acl_in : string option;  (** Ingress packet filter (by ACL name). *)
  acl_out : string option;
}

type neighbor = {
  addr : Ipv4.t;
  remote_as : int;
  local_as : int option;
      (** Per-neighbor local AS. In Junos, a neighbor (group) without
          [local-as] (or an enclosing [routing-options autonomous-system])
          draws a parse warning — the "Missing BGP local-as" error of
          Table 2. *)
  description : string option;
  import_policy : string option;
  export_policy : string option;
  next_hop_self : bool;
  send_community : bool;
}

type redistribution = { from_protocol : Route.source; policy : string option }

type bgp = {
  asn : int;
  router_id : Ipv4.t option;
  networks : Prefix.t list;
  neighbors : neighbor list;
  redistributions : redistribution list;
}

type ospf_interface = {
  iface : Iface.t;
  cost : int option;
  passive : bool;
  area : int;
}

type ospf = {
  process_id : int;
  router_id : Ipv4.t option;
  networks : (Prefix.t * int) list;  (** [network ... area n] statements. *)
  interfaces : ospf_interface list;
  redistributions : redistribution list;
}

type static_route = { destination : Prefix.t; next_hop : Ipv4.t }

type t = {
  hostname : string;
  interfaces : interface list;
  prefix_lists : Prefix_list.t list;
  community_lists : Community_list.t list;
  as_path_lists : As_path_list.t list;
  route_maps : Route_map.t list;
  acls : Acl.t list;
  statics : static_route list;
  bgp : bgp option;
  ospf : ospf option;
}

val empty : string -> t

val interface :
  ?address:Ipv4.t * int ->
  ?description:string ->
  ?shutdown:bool ->
  ?acl_in:string ->
  ?acl_out:string ->
  Iface.t ->
  interface

val neighbor :
  ?local_as:int ->
  ?description:string ->
  ?import_policy:string ->
  ?export_policy:string ->
  ?next_hop_self:bool ->
  ?send_community:bool ->
  Ipv4.t ->
  remote_as:int ->
  neighbor

val find_interface : t -> Iface.t -> interface option
val find_route_map : t -> string -> Route_map.t option
val find_prefix_list : t -> string -> Prefix_list.t option
val find_community_list : t -> string -> Community_list.t option
val find_acl : t -> string -> Acl.t option
val find_neighbor : bgp -> Ipv4.t -> neighbor option

val with_route_map : t -> Route_map.t -> t
(** Adds or replaces the map with the same name. *)

val connected_prefixes : t -> Prefix.t list
(** Subnets of all configured, non-shutdown interface addresses. *)

val undefined_references : t -> string list
(** Names referenced by route maps or BGP/OSPF blocks but not defined:
    dangling prefix lists, community lists, AS-path lists, route maps. *)
