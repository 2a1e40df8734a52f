(** Predicates over the route-announcement space: finite unions of
    {!Cube.t}. This is the workhorse type of the symbolic verifiers. *)

open Netcore

type t

val empty : t
val full : t
val of_cube : Cube.t -> t
val of_cubes : Cube.t list -> t

val union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t

val is_empty : t -> bool
val satisfies : env:Policy.Eval.env -> Route.t -> t -> bool

val sample : env:Policy.Eval.env -> ?universe:As_path.t list -> t -> Route.t option
(** First sampleable cube wins. [universe] defaults to
    {!default_universe}. *)

val default_universe : As_path.t list
(** A small set of generic AS paths used to instantiate AS-path
    constraints when the caller has no topology-specific candidates. *)

val as_path_lists_referenced : t -> string list
(** The AS-path lists the predicate's cubes name, which {!satisfies} and
    {!sample} look up by name in the environment. *)

val cubes : t -> Cube.t list
val size_hint : t -> int
val to_string : t -> string
val pp : Format.formatter -> t -> unit
