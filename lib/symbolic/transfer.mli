(** Symbolic transfer function of a route map: a partition of the route
    space into regions, each with the action and effect applied there. *)

open Policy

type region = {
  space : Pred.t;
  action : Action.t;
  effect_ : Effects.t;
  seq : int option;  (** [None] for the implicit-deny region. *)
}

val compile : Eval.env -> Route_map.t -> region list
(** Regions are pairwise disjoint and cover the full space; the last region
    is the implicit deny. Empty regions (shadowed entries) are dropped. *)

val env_slice : Route_map.t list -> Eval.env -> Eval.env
(** The part of an environment that compiling any of the maps reads: the
    prefix, community and AS-path lists they name, each in its original
    order so a first-match lookup by name is unchanged. *)

(** {2 Compiling a sequence of drafts}

    A VPP loop re-verifies every draft, and each fix touches one stanza, so
    most maps it compiles were compiled on an earlier draft. A cache
    remembers those regions. *)

type cache
(** Compiled regions, meant to live for one loop. It keeps every distinct
    map it has seen, with no eviction, which is bounded by the drafts of
    one loop. It is not safe to share between domains: give each loop its
    own. *)

val cache : unit -> cache

val compile_in : cache -> Eval.env -> Route_map.t -> region list
(** Exactly [compile env m]. Keyed on the map plus [env_slice [m] env], so
    editing a list the map does not name still hits. *)
