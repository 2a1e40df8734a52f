(** Generic Junos syntax tree: the curly-brace statement structure, prior to
    any semantic interpretation.

    A statement is a list of keywords followed either by [;] (a leaf) or by a
    braced block of sub-statements. Bracketed value lists ([members [ a b ]])
    are flattened into the keyword list with the brackets dropped. *)

type node = {
  keywords : string list;
  children : node list option;  (** [None] for leaf statements. *)
  line : int;
}

val parse : string -> node list * Netcore.Diag.t list
(** Tokenize and build the statement tree. Unbalanced braces, missing
    semicolons and stray tokens are reported and recovered from. *)

val children : node -> node list
(** Empty list for leaves. *)
