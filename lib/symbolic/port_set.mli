(** Sets of TCP/UDP ports (0..65535) as sorted disjoint intervals. *)

type t

val empty : t
val full : t
val singleton : int -> t
val range : int -> int -> t
(** Clamped to [0, 65535]; empty when [lo > hi]. *)

val mem : int -> t -> bool
val inter : t -> t -> t
val union : t -> t -> t
val diff : t -> t -> t
val complement : t -> t
val is_empty : t -> bool
val equal : t -> t -> bool
val choose : t -> int option
(** Smallest member. *)
