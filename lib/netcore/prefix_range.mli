(** Prefix ranges: a CIDR pattern plus a length interval.

    This is the matching unit of Cisco [ip prefix-list] entries
    ([permit 1.2.3.0/24 ge 24 le 30]) and of Juniper [route-filter]
    modifiers ([exact], [orlonger], [upto /n], [prefix-length-range]).

    A range [(p, ge, le)] matches a candidate prefix [q] iff [p] subsumes [q]
    and [ge <= len q <= le]. *)

type t = private { base : Prefix.t; ge : int; le : int }

val make : Prefix.t -> ge:int -> le:int -> t
(** Raises [Invalid_argument] unless [len base <= ge <= le <= 32]. *)

val exact : Prefix.t -> t
(** Matches only [base] itself. *)

val orlonger : Prefix.t -> t
(** Matches [base] and everything it subsumes ([ge = len base], [le = 32]). *)

val ge : Prefix.t -> int -> t
(** Cisco [ge n] with no [le]: matches lengths in [n, 32]. *)

val le : Prefix.t -> int -> t
(** Cisco [le n] with no [ge]: matches lengths in [len base, n]. *)

val matches : t -> Prefix.t -> bool

val base : t -> Prefix.t
val ge_bound : t -> int
val le_bound : t -> int

val is_exact : t -> bool
(** True iff the range matches exactly one prefix, its base. *)

val equal : t -> t -> bool
