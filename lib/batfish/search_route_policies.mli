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

(** {2 Checking}

    A hub's specs name each of its route maps many times, so specs are
    grouped by map: each map named is looked up once per call, compiled
    ({!Symbolic.Transfer.compile}) once, and its regions serve every spec
    naming it. The per-map answer is a pure function of a {!verdict_key},
    which lets a caller memoise it. *)

type verdict_key = {
  map : Route_map.t;
  env : Eval.env;
      (** The lists the verdict reads: the prefix, community and AS-path
          lists [map] names, and the AS-path lists the specs' spaces name
          (witness sampling looks those up by name), as
          {!Symbolic.Transfer.env_slice} keeps them. *)
  specs : spec list;  (** Every spec naming [map], in the caller's order. *)
}

val check_with :
  lookup:(verdict_key -> (unit -> outcome list) -> outcome list) ->
  Config_ir.t ->
  spec list ->
  (spec * outcome) list
(** Every spec's outcome, in order. For each route map the specs name,
    [lookup key verdicts] answers the outcomes of [key.specs], in order;
    [verdicts ()] computes them from [key] alone. A spec whose map is
    absent is [Policy_missing] without a lookup. *)

val check_all : Config_ir.t -> spec list -> (spec * outcome) list
(** The uncached reference: {!check_with} computing every verdict. *)

val check : Config_ir.t -> spec -> outcome
(** [check config spec] is {!check_all} over the single spec. *)

val violations : (spec * outcome) list -> violation list
(** The [Violated] outcomes of a {!check_all} answer, in order. *)
