(** Exact sets of IPv4 prefixes.

    A prefix space is a finite union of atoms [(base, lens)], each denoting
    "all prefixes subsumed by [base] whose length lies in [lens]". The
    algebra (union, intersection, difference) is exact, which is what lets
    the verifiers produce counterexample prefixes instead of approximations.
    This mirrors the prefix-space representation used by Batfish and
    Campion. *)

type atom = private { base : Netcore.Prefix.t; lens : Len_set.t }
(** Invariant: [lens] is non-empty and contains only lengths
    [>= Prefix.len base]. *)

type t
(** A union of atoms. Atoms may overlap; all operations remain exact. *)

val empty : t
val full : t
(** Every prefix: [0.0.0.0/0] with lengths 0..32. *)

val atom : Netcore.Prefix.t -> Len_set.t -> t
(** Drops lengths shorter than the base; empty result allowed. *)

val of_range : Netcore.Prefix_range.t -> t

val union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t

val is_empty : t -> bool
val mem : Netcore.Prefix.t -> t -> bool

val sample : t -> Netcore.Prefix.t option
(** Some concrete prefix in the space, [None] when empty. Deterministic. *)

val atoms : t -> atom list
