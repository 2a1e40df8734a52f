(** Named AS-path access lists: ordered (action, regex) entries with
    first-match semantics and implicit deny. *)

open Netcore

type entry = { action : Action.t; regex : string }
type t = { name : string; entries : entry list }

val make : string -> entry list -> t
val entry : ?action:Action.t -> string -> entry

val matches : t -> As_path.t -> bool
(** Raises [Invalid_argument] if an entry's regex is malformed (the linter
    reports those before evaluation in the verification pipeline). *)
