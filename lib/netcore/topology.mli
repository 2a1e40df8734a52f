(** Network topologies: routers, point-to-point links, and stub networks.

    This is the "precise machine readable description of the modules" that
    the paper's modularizer consumes, and the ground truth the topology
    verifier checks configurations against. It round-trips through
    {!Json.t}. *)

type port = { iface : Iface.t; addr : Ipv4.t; subnet : Prefix.t }
(** One configured interface: its name, address, and the subnet the address
    lives in. *)

type router = {
  name : string;
  asn : int;
  router_id : Ipv4.t;
  ports : port list;
  stub_networks : Prefix.t list;
      (** Directly attached networks with no BGP speaker behind them (the
          CUSTOMER and ISP networks of Figure 4). Each stub network must also
          appear as the subnet of some port. *)
}

type endpoint = { router : string; iface : Iface.t; addr : Ipv4.t }

type link = { a : endpoint; b : endpoint; subnet : Prefix.t }
(** A point-to-point link between two routers on a shared subnet. *)

type t = { routers : router list; links : link list }

type session = {
  local_addr : Ipv4.t;
  peer_name : string;
  peer_addr : Ipv4.t;
  peer_asn : int;
}
(** One eBGP session implied by a link, seen from one side. *)

val find_router : t -> string -> router option
val find_router_exn : t -> string -> router

val sessions_of : t -> string -> session list
(** All BGP sessions router [name] should configure, one per incident link,
    in link order. *)

val networks_of : t -> string -> Prefix.t list
(** All networks router [name] should announce in BGP: its stub networks
    followed by the subnets of its incident links, without duplicates. *)

val validate : t -> (unit, string list) result
(** Structural sanity: router names unique; link endpoints name known
    routers and ports; both ends of a link lie in the link subnet; stub
    networks are backed by ports; router ids and ASNs positive. *)

val to_json : t -> Json.t
val of_json : Json.t -> (t, string) result

val describe : t -> string
(** English description of the topology, sentence per fact — the "textual
    description used as a prompt" of Section 4.1. *)
