(** Compilation of IR match conditions to symbolic predicates. *)

open Policy

val compile_prefix_list : Prefix_list.t -> Prefix_space.t
(** The set of prefixes the list permits, honouring first-match order and
    interleaved deny entries. *)

val compile_community_list : Community_list.t -> Comm_constr.t list
(** The set of community-sets the list permits, as a union of cubes. *)

val compile_entry_guard : Eval.env -> Route_map.entry -> Pred.t
(** Conjunction of the entry's conditions (AND semantics); the empty
    condition list compiles to the full space. *)
