(** BGP standard communities (RFC 1997), written [asn:value]. *)

type t = private { asn : int; value : int }

val make : int -> int -> t
(** [make asn value]. Both halves must fit in 16 bits. *)

val of_string : string -> t option
(** Parse ["100:1"]. *)

val of_string_exn : string -> t
val to_string : t -> string

val add_to_buffer : Buffer.t -> t -> unit
(** Append {!to_string}'s text without allocating. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

module Set : sig
  include Set.S with type elt = t

  val to_string : t -> string
  (** Space-separated rendering of the members, in order. *)

  val pp : Format.formatter -> t -> unit
end
