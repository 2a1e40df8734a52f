(** Community-membership cubes.

    A cube requires a set of communities to be present and another set to be
    absent; communities mentioned in neither are unconstrained. Standard
    community lists compile to unions of cubes; the AND/OR confusion of
    Section 4.2 is visible here as the difference between one cube with two
    required communities and a union of two single-community cubes. *)

open Netcore

type t = private { must : Community.Set.t; must_not : Community.Set.t }
(** Invariant: [must] and [must_not] are disjoint. *)

val top : t
(** No constraint. *)

val make : must:Community.Set.t -> must_not:Community.Set.t -> t option
(** [None] when the two sets intersect (unsatisfiable). *)

val require : Community.t -> t
val forbid : Community.t -> t

val inter : t -> t -> t option
val complement : t -> t list
(** Union of cubes covering everything outside [t]. *)

val satisfies : Community.Set.t -> t -> bool
val sample : t -> Community.Set.t
(** The smallest satisfying set ([must] itself). *)
