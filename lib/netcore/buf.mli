(** Allocation-free writers of decimal text into a [Buffer.t], shared by
    the [to_string] functions of this library and the configuration
    printers. *)

val add_int : Buffer.t -> int -> unit
(** [add_int b n] appends [string_of_int n] to [b] without allocating. *)
