(** Concrete fault instances: an error class applied at a location of a
    configuration, with functions to enumerate injection opportunities,
    corrupt the correct artifact, and render the corrupted text. *)

open Netcore
open Policy

type target =
  | Whole_config
  | Neighbor of Ipv4.t
  | Policy of string
  | Policy_entry of string * int
  | Interface of Iface.t
  | Named_list of string
  | Network of Prefix.t

type t = { class_ : Error_class.t; target : target }

type dialect = Cisco_cfg | Junos_cfg

val make : Error_class.t -> target -> t
val equal : t -> t -> bool
val to_string : t -> string

val opportunities : dialect -> Config_ir.t -> t list
(** Every fault instance that could be injected into this artifact: e.g. one
    [Ospf_cost_wrong] per OSPF interface, one [Missing_neighbor_decl] per
    neighbor, one [Redistribution_unscoped] when export policies carry
    source-protocol scoping. *)

val render : dialect -> Config_ir.t -> t list -> string
(** Apply every fault to the correct IR, print in the dialect, then apply
    the text-level manglings (CLI keywords, misplaced neighbor lines, the
    /24-32 shorthand, dropped local-as lines). Unknown targets are ignored
    (rendering is total). *)
