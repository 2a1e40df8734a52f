(** BGP route announcements.

    This is the value that flows through route maps, both concretely (in the
    evaluator and the BGP simulator) and as the sample space of the symbolic
    engine. *)

type origin = Igp | Egp | Incomplete

type source = Bgp | Ospf | Connected | Static
(** The protocol a route was learned from; relevant to redistribution
    ([from bgp] / [match source-protocol]) conditions. *)

type t = {
  prefix : Prefix.t;
  next_hop : Ipv4.t option;
  as_path : As_path.t;
  communities : Community.Set.t;
  med : int;
  local_pref : int;
  origin : origin;
  source : source;
}

val make :
  ?next_hop:Ipv4.t ->
  ?as_path:As_path.t ->
  ?communities:Community.Set.t ->
  ?med:int ->
  ?local_pref:int ->
  ?origin:origin ->
  ?source:source ->
  Prefix.t ->
  t
(** Defaults: no next hop, empty AS path, no communities, MED 0,
    local-pref 100, origin [Igp], source [Bgp]. *)

val default_local_pref : int

val with_communities : t -> Community.Set.t -> t
val add_community : t -> Community.t -> t

val source_to_string : source -> string

val equal : t -> t -> bool
val to_string : t -> string
