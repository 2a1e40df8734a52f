(** IPv4 addresses represented as 32-bit unsigned integers.

    Addresses are stored in host order inside a native [int] (OCaml ints are
    63-bit, so the full unsigned 32-bit range is representable exactly). *)

type t
(** An IPv4 address. *)

val zero : t
(** [0.0.0.0]. *)

val broadcast_all : t
(** [255.255.255.255]. *)

val of_int : int -> t
(** [of_int n] is the address with numeric value [n land 0xFFFFFFFF]. *)

val to_int : t -> int
(** Numeric value in [0, 2^32). *)

val of_octets : int -> int -> int -> int -> t
(** [of_octets a b c d] is [a.b.c.d]. Raises [Invalid_argument] if any octet
    is outside [0, 255]. *)

val to_octets : t -> int * int * int * int

val of_string : string -> t option
(** Parse dotted-quad notation. *)

val of_string_exn : string -> t
(** Like {!of_string}. Raises [Invalid_argument] on malformed input. *)

val to_string : t -> string

val add_to_buffer : Buffer.t -> t -> unit
(** Append {!to_string}'s text without allocating. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val hash : t -> int

val succ : t -> t
(** Next address, wrapping at [255.255.255.255]. *)

val bit : t -> int -> bool
(** [bit a i] is the [i]-th most significant bit of [a]; [i] in [0, 31]. *)

val mask : int -> t
(** [mask n] is the netmask with [n] leading one bits; [n] in [0, 32]. *)

val logor : t -> t -> t
val lognot : t -> t

val network : t -> int -> t
(** [network a len] zeroes all but the first [len] bits of [a]. *)

val pp : Format.formatter -> t -> unit
