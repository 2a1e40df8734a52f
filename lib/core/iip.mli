(** The Initial Instruction Prompt (IIP) database.

    "We start each chat with a set of initial instruction prompts loaded
    from a database for avoiding common mistakes. The IIP database can be
    built and added by experts over time." The four defaults are the ones
    Section 4.2 reports supplying. *)

type t = { id : string; text : string }

val defaults : t list
(** cfg-files-only, no-cli-keywords advice folded into it,
    community-list-matching, additive-community. *)

val ids : t list -> string list
val render : t list -> string
(** The concatenated instruction block that opens a chat. *)
