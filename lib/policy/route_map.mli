(** Routing policies in the vendor-neutral IR.

    A route map is an ordered list of entries (Cisco stanzas / Juniper
    terms). Within one entry all match conditions must hold (AND); entries
    are tried in sequence order (OR); a route matching no entry is denied.
    This AND-within / OR-across distinction is precisely the semantics GPT-4
    confused in Section 4.2 of the paper. *)

open Netcore

type match_cond =
  | Match_prefix_list of string  (** Reference to a named prefix list. *)
  | Match_community_list of string  (** Reference to a named community list. *)
  | Match_as_path of string  (** Reference to a named AS-path access list. *)
  | Match_source_protocol of Route.source
      (** Cisco [match source-protocol] / Juniper [from protocol]; how
          redistribution scoping ("from bgp") is expressed in the IR. *)
  | Match_med of int
  | Match_tag of int

type set_action =
  | Set_med of int
  | Set_local_pref of int
  | Set_community of { communities : Community.t list; additive : bool }
      (** [additive = false] {e replaces} the route's communities — the
          default Cisco behaviour the paper's IIP warns about. *)
  | Set_community_delete of string
      (** Delete communities matched by the named community list. *)
  | Set_next_hop of Ipv4.t
  | Set_as_path_prepend of int list

type entry = {
  seq : int;
  action : Action.t;
  matches : match_cond list;
  sets : set_action list;
}

type t = { name : string; entries : entry list }

val make : string -> entry list -> t
(** Sorts by sequence number; raises [Invalid_argument] on duplicates. *)

val entry :
  ?action:Action.t -> ?matches:match_cond list -> ?sets:set_action list -> int -> entry

val permit_all : string -> t
(** A map with a single empty-match permit entry. *)

val prefix_lists_referenced : t -> string list
val community_lists_referenced : t -> string list
val as_path_lists_referenced : t -> string list
