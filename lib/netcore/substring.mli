(** Substring search that allocates nothing while it scans. *)

val find : sub:string -> string -> int option
(** The index of the first occurrence of [sub] in the string; [Some 0] for
    an empty [sub]. *)

val contains : sub:string -> string -> bool
(** [find ~sub s <> None], without the option. *)
