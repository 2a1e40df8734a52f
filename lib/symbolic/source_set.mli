(** Subsets of the route-source protocols {!Netcore.Route.source}. The
    dimension along which redistribution conditions ("from bgp") cut the
    route space. *)

type t

val full : t
val singleton : Netcore.Route.source -> t
val mem : Netcore.Route.source -> t -> bool
val inter : t -> t -> t
val diff : t -> t -> t
val is_empty : t -> bool
val choose : t -> Netcore.Route.source option
