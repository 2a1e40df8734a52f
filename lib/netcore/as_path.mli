(** BGP AS paths and AS-path regular expressions.

    An AS path is the ordered list of autonomous systems a route has
    traversed, most recent first. AS-path access lists match paths with a
    POSIX-style regular expression over the space-separated rendering, where
    the conventional [_] metacharacter matches a delimiter (start, end, or a
    boundary between AS numbers). *)

type t
(** An AS path. *)

val empty : t
val of_list : int list -> t

val prepend : int -> t -> t
(** [prepend asn p] is the path after [asn] announces it onward. *)

val prepend_n : int -> int -> t -> t
(** [prepend_n asn k p] prepends [asn] [k] times (AS-path prepending). *)

val length : t -> int
val mem : int -> t -> bool

val origin : t -> int option
(** The originating AS (last element), if any. *)

val head : t -> int option
(** The most recent AS (first element), if any. *)

val to_string : t -> string
(** Space-separated, most recent first; the empty path renders as [""]. *)

val of_string : string -> t option
(** Inverse of {!to_string}; accepts extra whitespace. *)

val matches : regex:string -> t -> bool
(** [matches ~regex p] applies an AS-path regular expression (with [_]
    sugar) to [p]. Raises [Invalid_argument] if [regex] is malformed. *)
