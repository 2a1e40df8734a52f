(** eBGP control-plane simulation to a converged fixpoint.

    This plays the role of the paper's final step: "we simulate the entire
    BGP communication using Batfish ... in order to ensure that the global
    policy is satisfied". Each router originates its declared networks,
    routes propagate over the topology's links through the senders' export
    and receivers' import policies, best paths are selected with the
    standard decision process (local preference, AS-path length, MED,
    then a deterministic tie-break), and AS-path loop prevention applies. *)

open Netcore
open Policy

type network = Net.t = {
  topology : Topology.t;
  configs : (string * Config_ir.t) list;
}

type rib_entry = {
  route : Route.t;
  learned_from : string option;
      (** Name of the neighbouring router, [None] for locally originated
          networks. *)
}

type ribs
(** Converged per-router routing tables. *)

exception Did_not_converge of int

val run : ?max_iterations:int -> network -> ribs
(** Raises {!Did_not_converge} after [max_iterations] (default 64) sweeps —
    with eBGP loop prevention this indicates a bug, not an oscillating
    policy. Routers present in the topology but missing from [configs]
    participate with empty configurations (originate nothing, accept
    nothing).

    Redistribution: a router whose BGP process redistributes OSPF (or
    connected routes) originates its OSPF routing table (resp. connected
    subnets) into BGP, passed through the redistribution route map; the
    OSPF metric becomes the MED and the route keeps its source protocol, so
    protocol-scoped export policies apply. *)

val rib : ribs -> string -> rib_entry list
(** Sorted by prefix; empty for unknown routers. *)

val lookup : ribs -> router:string -> Prefix.t -> rib_entry option
(** Exact-prefix lookup. *)

val reachable : ribs -> router:string -> Prefix.t -> bool
(** The router has a route to exactly this prefix — its own networks
    included. *)

val routers : ribs -> string list
