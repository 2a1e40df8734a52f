(** Normalized effect of a route-map entry's set actions, for comparing the
    transforms two policies apply to the same region of route space (how
    Campion detects "setting wrong BGP MED value" or a community being
    replaced instead of added). *)

open Netcore

type t = {
  med : int option;
  local_pref : int option;
  comm_base : Community.Set.t option;
      (** [Some s]: communities were replaced, final set starts from [s];
          [None]: the route's own communities are kept. *)
  comm_added : Community.Set.t;
  comm_deleted : string list;  (** Community lists whose matches are deleted. *)
  next_hop : Ipv4.t option;
  prepend : int list;
}

val identity : t
val of_sets : Policy.Route_map.set_action list -> t

val equal : t -> t -> bool

val differing_fields : t -> t -> (string * string * string) list
(** [(attribute, value_in_first, value_in_second)] for each field where the
    two effects disagree; empty when equal. *)
