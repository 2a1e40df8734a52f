(** Named prefix lists (Cisco [ip prefix-list] / Juniper prefix-list with
    route-filter modifiers), first-match semantics with implicit deny. *)

open Netcore

type entry = { seq : int; action : Action.t; range : Prefix_range.t }

type t = { name : string; entries : entry list }
(** Entries are kept sorted by sequence number. *)

val make : string -> entry list -> t
(** Sorts entries by [seq]; raises [Invalid_argument] on duplicate sequence
    numbers. *)

val entry : ?action:Action.t -> int -> Prefix_range.t -> entry
(** [entry seq range] with [action] defaulting to [Permit]. *)

val matches : t -> Prefix.t -> bool
(** First matching entry decides; an empty or exhausted list denies. *)
