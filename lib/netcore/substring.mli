(** Substring search and field scanners that allocate nothing while they
    scan. *)

val find : sub:string -> string -> int option
(** The index of the first occurrence of [sub] in the string; [Some 0] for
    an empty [sub]. *)

val contains : sub:string -> string -> bool
(** [find ~sub s <> None], without the option. *)

val index_char : string -> char -> int -> int
(** [index_char s c i] is the index of the first [c] in [s] at or after
    [i], or -1. *)

val bounded_int : string -> int -> int -> max:int -> int
(** [bounded_int s lo hi ~max] is [int_of_string_opt] of [s.[lo, hi)] when
    that is a number from 0 to [max], else -1. A field of at most six
    decimal digits is read in place; any other goes through
    [int_of_string_opt] and its syntax (signs, [0x]/[0o]/[0b]/[0u]
    prefixes, underscores). *)
