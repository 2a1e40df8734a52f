(** Constraints over a single non-negative integer route attribute (MED,
    tag): either unconstrained, pinned to a value, or excluding a finite
    set of values. Closed under the intersections and complements route-map
    guards generate (equality tests only). *)

type t = Any | Eq of int | Neq of int list  (** [Neq] list is sorted, non-empty. *)

val any : t
val eq : int -> t

val inter : t -> t -> t option
(** [None] when unsatisfiable. *)

val complement : t -> t list
(** The complement as a union of constraints (empty list = empty set). *)

val sample : t -> int
(** A satisfying value (deterministic). *)

val satisfies : int -> t -> bool
