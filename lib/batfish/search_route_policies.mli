(** Batfish's "Search Route Policies" question: verify that a route map
    treats a symbolic space of input routes as a local policy requires, and
    produce a concrete counterexample route when it does not.

    This is the semantic verifier of the paper's second use case: local
    policies in the style of Lightyear ("R1 should add a specific community
    at the ingress to each ISP and then drop routes based on those
    communities at the egress"). *)

open Netcore
open Policy

type requirement =
  | Permits  (** Every route in the space must be permitted. *)
  | Denies  (** Every route in the space must be denied. *)
  | Adds_community of Community.t
      (** Every route in the space must be permitted with the community
          added {e additively} — a permit that replaces the route's
          communities violates this (the paper's "additive" pitfall). *)
  | Prepends of int list
      (** Every route in the space must be permitted with exactly this
          AS-path prepending applied (used by the incremental-policy
          extension). *)

type spec = {
  policy : string;  (** Route-map name. *)
  space : Symbolic.Pred.t;
  requirement : requirement;
  description : string;  (** Human phrasing of the space, for prompts. *)
}

type violation = {
  spec : spec;
  example : Route.t;
  got_action : Action.t;
  at_seq : int option;  (** Entry that mishandled the example. *)
  replaced_communities : bool;
      (** For {!Adds_community}: the entry permitted but replaced instead of
          adding. *)
}

type outcome = Holds | Violated of violation | Policy_missing

val requirement_to_string : requirement -> string

val check_in :
  Symbolic.Transfer.cache -> Config_ir.t -> spec list -> (spec * outcome) list
(** Every spec's outcome, in order. Looks up each route map the specs name
    once per call, takes its regions from the cache
    ({!Symbolic.Transfer.compile_in}), and checks every spec naming that
    map against them. A spec whose map is absent is [Policy_missing]. A
    cache that lives across calls (one loop's drafts) compiles only the
    maps an earlier draft did not already have. *)

val check_all : Config_ir.t -> spec list -> (spec * outcome) list
(** [check_all config specs] is {!check_in} on a fresh cache: each named map
    is compiled once per call and nothing is kept between calls. *)

val check : Config_ir.t -> spec -> outcome
(** [check config spec] is {!check_all} over the single spec. *)

val violations : (spec * outcome) list -> violation list
(** The [Violated] outcomes of a {!check_all} answer, in order. *)
