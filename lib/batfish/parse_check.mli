(** The "Batfish syntax question": parse a vendor configuration and return
    the IR together with every parse warning and lint finding. *)

type dialect = Cisco_ios | Junos

val dialect_name : dialect -> string

val check : dialect -> string -> Policy.Config_ir.t * Netcore.Diag.t list
(** Parser diagnostics followed by lint diagnostics. *)

val syntax_ok : dialect -> string -> bool
(** True when {!check} yields no diagnostics of severity [Error]. Lint
    warnings do not make a config syntactically bad. *)
