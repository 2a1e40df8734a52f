(** Located diagnostics produced by the dialect parsers and linters — the
    raw material the humanizer turns into natural-language prompts. *)

type severity = Warning | Error

type t = { line : int; severity : severity; message : string }
(** [line] is 1-based; 0 means "whole file". *)

val warning : ?line:int -> string -> t
val error : ?line:int -> string -> t

val is_error : t -> bool
val to_string : t -> string
