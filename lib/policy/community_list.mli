(** Named standard community lists ([ip community-list standard]).

    An entry lists one or more communities; a route matches the entry when it
    carries {e all} of them. The list matches when its first matching entry
    permits (first-match semantics, implicit deny). *)

open Netcore

type entry = { action : Action.t; communities : Community.t list }
type t = { name : string; entries : entry list }

val make : string -> entry list -> t
val entry : ?action:Action.t -> Community.t list -> entry

val matches : t -> Community.Set.t -> bool

val communities_mentioned : t -> Community.Set.t
(** Every community appearing in any entry (used to build the symbolic
    community universe). *)
