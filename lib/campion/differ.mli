(** The Campion-equivalent differ: localized differences between an original
    (Cisco) configuration and its (Juniper) translation.

    Findings come in the paper's three semantic classes — structural
    mismatch, attribute difference, policy behavior difference — each
    localized to the component involved and, for behavior differences,
    carrying an example route, exactly the raw material Table 1's prompt
    formulas need.

    Export policies are compared {e effectively}: the Cisco side is first
    normalized with {!Juniper.Translate.of_cisco_ir} so that redistribution
    into BGP is part of the export policy on both sides; a difference whose
    witness is a non-BGP route is classified as a redistribution
    difference. *)

open Netcore
open Policy

type direction = Import | Export

type structural =
  | Missing_neighbor of { addr : Ipv4.t; missing_in_translation : bool }
  | Missing_acl_attachment of {
      iface : Iface.t;
      direction : direction;
      missing_in_translation : bool;
    }
  | Missing_policy of {
      neighbor : Ipv4.t;
      direction : direction;
      missing_in_translation : bool;
    }
  | Missing_network of { network : Prefix.t; missing_in_translation : bool }
  | Missing_bgp_process of { missing_in_translation : bool }
  | Missing_ospf_interface of { iface : Iface.t; missing_in_translation : bool }

type attribute = {
  component : string;  (** E.g. ["OSPF link for Loopback0"]. *)
  translated_component : string;  (** E.g. ["lo0.0"]. *)
  attribute : string;  (** E.g. ["cost"]. *)
  original_value : string;
  translated_value : string;
}

type behavior = {
  policy : string;
  neighbor : Ipv4.t option;
  direction : direction;
  example : Route.t;
  original_action : Action.t;
  translated_action : Action.t;
  is_redistribution : bool;
      (** The witness is a non-BGP-sourced route: the difference is in what
          gets redistributed into BGP. *)
  effect_detail : (string * string * string) list;
      (** For same-action differences: (attribute, original, translated). *)
}

type acl_behavior = {
  acl : string;
  iface : Iface.t;
  acl_direction : direction;
  packet : Packet.t;
  original_packet_action : Action.t;
  translated_packet_action : Action.t;
}
(** A data-plane difference: a packet one side's filter permits and the
    other's denies, localized to the interface and direction the filters
    are attached at. *)

type finding =
  | Structural of structural
  | Attribute of attribute
  | Behavior of behavior
  | Acl_behavior of acl_behavior

val compare : original:Config_ir.t -> translation:Config_ir.t -> finding list
(** Structural findings first, then attributes, then behavior — the order
    the paper says matters ("syntax errors and structural mismatches have to
    be handled earlier since they can mask attribute differences and policy
    behavior differences"). [compare] is the uncached one-shot reference. *)

(** {2 Checking a sequence of drafts}

    A VPP loop diffs every draft against the same original, and each fix
    touches one stanza, so most route-map and ACL pairs it compares were
    already compared on an earlier draft — or in an earlier loop over the
    same original. {!check} looks those symbolic diffs up in two
    process-wide {!Netcore.Memo_table}s named ["diff_memo"], one of route-map
    pairs and one of ACL pairs. They are bounded (oldest eighth evicted at
    the cap), domain-safe, shared by every loop, sweep seed, pool domain
    and [serve] request, and emptied by {!Netcore.Memo_table.reset}. *)

val check : original:Config_ir.t -> translation:Config_ir.t -> finding list
(** Exactly {!compare}'s findings, witnesses included. The structural and
    attribute passes always run; the symbolic diffs are looked up first:
    - a route-map pair is keyed on both maps plus the part of each side's
      environment the diff reads: the prefix and AS-path lists either map
      names, in their original order so a first-match lookup is unchanged,
      and {e all} community lists, because witness routes are decorated
      with communities drawn from every one of them;
    - an ACL pair is keyed on both ACLs. *)

val policy_key_hash :
  env_a:Eval.env -> env_b:Eval.env -> Route_map.t -> Route_map.t -> int
(** The hash of the route-map-pair key {!check} builds for these maps and
    environments. It reads past the map names into every entry. *)

val direction_to_string : direction -> string
val finding_to_string : finding -> string
