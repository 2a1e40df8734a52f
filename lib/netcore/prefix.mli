(** IPv4 CIDR prefixes.

    A prefix is an address plus a mask length. Values are kept normalized:
    host bits are always zero, so structural equality coincides with semantic
    equality. *)

type t = private { addr : Ipv4.t; len : int }

val make : Ipv4.t -> int -> t
(** [make addr len] normalizes [addr] to its network address. Raises
    [Invalid_argument] if [len] is outside [0, 32]. *)

val addr : t -> Ipv4.t
val len : t -> int

val of_string : string -> t option
(** Parse ["a.b.c.d/len"]. A bare address parses as a /32. *)

val of_string_exn : string -> t
val to_string : t -> string

val add_to_buffer : Buffer.t -> t -> unit
(** Append {!to_string}'s text without allocating. *)

val default : t
(** [0.0.0.0/0]. *)

val host : Ipv4.t -> t
(** The /32 containing exactly one address. *)

val contains_addr : t -> Ipv4.t -> bool
(** [contains_addr p a] is true iff [a] lies inside [p]. *)

val subsumes : t -> t -> bool
(** [subsumes p q] is true iff every address of [q] is in [p] (i.e. [p] is a
    shorter-or-equal prefix of [q]). *)

val overlaps : t -> t -> bool
(** True iff the address sets intersect, i.e. one subsumes the other. *)

val last : t -> Ipv4.t
(** Highest address (the broadcast address for subnets). *)

val split : t -> (t * t) option
(** [split p] is the two halves of [p], or [None] when [len p = 32]. *)

val nth_host : t -> int -> Ipv4.t
(** [nth_host p i] is the [i]-th address inside [p] (0-based). Raises
    [Invalid_argument] when out of range. *)

val compare : t -> t -> int
val equal : t -> t -> bool

module Set : Set.S with type elt = t
module Map : Map.S with type key = t
