(** The topology verifier of Section 4: "an automated 'topology verifier'
    that compares the config against the previously specified JSON dictionary
    and outputs inconsistencies".

    The finding kinds and messages reproduce Table 3's seven examples:
    interface address mismatch, local AS mismatch, router-id mismatch,
    missing neighbor, missing network, network not directly connected, and
    neighbor that should not exist. *)

open Netcore

type kind =
  | Interface_address_mismatch
  | Missing_interface
  | Local_as_mismatch
  | Router_id_mismatch
  | Neighbor_not_declared
  | Network_not_declared
  | Incorrect_network
  | Incorrect_neighbor
  | No_bgp_process

type finding = {
  kind : kind;
  message : string;
  iface : Iface.t option;  (** The interface involved, when applicable. *)
  peer : Ipv4.t option;  (** The neighbor address involved, when applicable. *)
  network : Prefix.t option;  (** The network involved, when applicable. *)
}

val check : Topology.t -> router:string -> Policy.Config_ir.t -> finding list
(** Compare a single router's parsed configuration against its row of the
    topology dictionary. Raises [Invalid_argument] if [router] is not in the
    topology. *)

val check_from_json : Json.t -> router:string -> Policy.Config_ir.t -> (finding list, string) result
(** Same, starting from the JSON dictionary itself. *)
