(** A small self-contained JSON implementation.

    The paper's modularizer exchanges the network topology as "a precise
    machine readable (we use JSON) description". We implement just enough of
    RFC 8259 for that purpose rather than depending on an external package:
    values, a recursive-descent parser with error positions, a printer, and
    accessor combinators. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of int * string
(** [(position, message)]: raised by {!of_string_exn}. *)

val of_string : string -> (t, string) result
val of_string_exn : string -> t

val to_string : ?pretty:bool -> t -> string
(** Compact by default; [~pretty:true] indents with two spaces. *)

(** {2 Accessors}

    All return [None] on shape mismatch rather than raising. *)

val member : string -> t -> t option
val to_int : t -> int option
val to_float : t -> float option
val to_bool : t -> bool option
val to_str : t -> string option
val to_list : t -> t list option
val to_obj : t -> (string * t) list option

val member_exn : string -> t -> t
val int_exn : t -> int
val str_exn : t -> string
val list_exn : t -> t list
