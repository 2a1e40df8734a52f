(** Concrete evaluation of route maps over route announcements.

    This is the executable semantics of the IR: given the defining
    environment (the named lists a map references), apply a route map to a
    concrete route. The symbolic engine is checked against this evaluator by
    property tests. *)

open Netcore

type env = {
  prefix_lists : Prefix_list.t list;
  community_lists : Community_list.t list;
  as_path_lists : As_path_list.t list;
}

val env_of_config : Config_ir.t -> env

type verdict = Permitted of Route.t | Denied

val entry_matches : env -> Route_map.entry -> Route.t -> bool
(** All conditions of the entry hold (AND semantics; an empty condition list
    matches everything). *)

val eval : env -> Route_map.t -> Route.t -> verdict
(** First matching entry decides; no match is an implicit deny. *)

val eval_optional : env -> Route_map.t option -> Route.t -> verdict
(** [None] (no policy attached) permits the route unchanged. *)
