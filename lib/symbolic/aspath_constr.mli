(** AS-path constraints over named AS-path access lists.

    Deciding intersection of arbitrary path regexes is out of scope (as it
    is for Campion); instead each named list is treated as an opaque
    predicate and a cube records which lists must match and which must not.
    Sampling enumerates a candidate universe of concrete paths. *)

open Netcore
open Policy

type t = private { must : string list; must_not : string list }
(** Sorted, disjoint name lists. *)

val top : t
val require : string -> t

val inter : t -> t -> t option
(** [None] only on a direct contradiction (same list required and
    forbidden); regex-level unsatisfiability is not detected, which is sound
    for difference-finding (may only over-approximate the difference
    space). *)

val complement : t -> t list

val satisfies : env:As_path_list.t list -> As_path.t -> t -> bool

val sample : env:As_path_list.t list -> universe:As_path.t list -> t -> As_path.t option
(** First path in [universe] satisfying the cube; for the top cube the empty
    path is returned without consulting the universe. *)
