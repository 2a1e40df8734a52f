(** Intra-area OSPF simulation: adjacency formation, link costs, shortest
    paths (Dijkstra), and the resulting per-router OSPF routing tables.

    Model: an adjacency forms over a topology link when both endpoint
    routers run OSPF, both incident interfaces are members of the same area
    (by explicit per-interface configuration or by coverage of a
    [network ... area] statement), and neither side is passive. Every
    member interface's subnet is advertised (passive interfaces advertise
    but form no adjacency — the standard way to announce a LAN without
    flooding it). Path cost sums the outgoing interface costs along the
    path, using Cisco's defaults (1 for loopbacks, 10 otherwise) when not
    explicit. Inter-area summarization is out of scope. *)

open Netcore

type entry = {
  prefix : Prefix.t;
  cost : int;
  next_hop : string option;  (** Next router on the path, [None] if local. *)
}

type ribs

val empty : ribs
(** No OSPF state at all (used when no router redistributes OSPF). *)

val run : Net.t -> ribs

val rib : ribs -> string -> entry list
(** Sorted by prefix; empty for routers not running OSPF. *)

val lookup : ribs -> router:string -> Prefix.t -> entry option
