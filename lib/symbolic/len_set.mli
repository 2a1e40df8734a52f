(** Sets of prefix lengths (0..32), represented as a 33-bit bitset. *)

type t

val full : t
val singleton : int -> t
val range : int -> int -> t
(** [range lo hi] is [{lo, ..., hi}]; empty when [lo > hi]. Bounds are
    clamped to [0, 32]. *)

val mem : int -> t -> bool
val inter : t -> t -> t
val union : t -> t -> t
val diff : t -> t -> t
val is_empty : t -> bool
val min_elt : t -> int option
val to_list : t -> int list
val restrict_ge : int -> t -> t
(** Keep only lengths [>= n]. *)
