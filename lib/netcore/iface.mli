(** Router interface names, with Cisco/Juniper naming conversion.

    The paper's translation use case needs the correspondence between a Cisco
    interface name (e.g. [Ethernet0/1], [Loopback0]) and its Juniper
    equivalent ([ge-0/0/1.0], [lo0.0]): Campion must align the two sides of a
    translation before it can compare attributes. *)

type kind = Ethernet | FastEthernet | GigabitEthernet | Loopback

type t = private { kind : kind; slot : int; port : int }
(** For [Loopback], [slot] is the loopback number and [port] is unused. *)

val ethernet : slot:int -> port:int -> t
val loopback : int -> t

val cisco_name : t -> string
(** E.g. ["Ethernet0/1"], ["Loopback0"]. *)

val junos_name : t -> string
(** The conventional Junos unit-0 equivalent, e.g. ["ge-0/0/1.0"],
    ["lo0.0"]. *)

val of_cisco : string -> t option
(** Parse a Cisco name; accepts common abbreviations ([eth0/1], [Gi0/0],
    [lo0]) case-insensitively. *)

val of_junos : string -> t option
(** Parse a Junos name such as ["ge-0/0/1.0"] (unit suffix optional) or
    ["lo0.0"]. *)

val is_loopback : t -> bool
val compare : t -> t -> int
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

module Map : Map.S with type key = t
