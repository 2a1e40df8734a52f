(** Permit/deny actions shared by all policy structures. *)

type t = Permit | Deny

val to_string : t -> string
val of_string : string -> t option
val flip : t -> t
