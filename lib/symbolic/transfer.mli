(** Symbolic transfer function of a route map: a partition of the route
    space into regions, each with the action and effect applied there.

    Nothing here is cached. Search Route Policies memoises whole per-map
    verdicts instead, keyed on the map and {!env_slice}, in a process-wide
    table of the [exec] library. *)

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

val env_slice : ?as_path_lists:string list -> Route_map.t list -> Eval.env -> Eval.env
(** The part of an environment that compiling any of the maps reads: the
    prefix, community and AS-path lists they name, plus the AS-path lists
    named in [as_path_lists] (default none), each in its original order so
    a first-match lookup by name is unchanged. *)
