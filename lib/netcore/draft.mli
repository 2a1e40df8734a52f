(** A configuration text with its hash, computed once where the text enters
    the system: when the simulated LLM renders a draft (stored with the
    render), when an adversarial wrapper forges one, when [serve] reads a
    parse job, when a translation loop takes its original. Every
    {!Memo_table} keyed on the text then hashes it by reading [hash]
    instead of every byte.

    The hash is the first field, so [compare] on two texts, or on keys
    holding them, tells different hashes apart without reading the
    strings, and returns at once on one value passed along by reference. *)

type t = private { hash : int; text : string }

val of_string : string -> t
(** [hash] is [Hashtbl.hash text], which mixes every byte of a string. *)
