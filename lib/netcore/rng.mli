(** Deterministic splittable RNG (splitmix64). Every stochastic stream —
    the simulated LLM, the chaos and disk-fault schedules, the adversaries
    and the fuzz mutator — flows from a seed, so every experiment is
    exactly reproducible. *)

type t

val make : int -> t
val split : t -> t * t
(** Two independent streams. *)

val float : t -> float
(** Uniform in [0, 1). *)

val bernoulli : t -> float -> bool
val int : t -> int -> int
(** [int t bound] uniform in [0, bound); [bound > 0]. *)

val choice : t -> 'a list -> 'a option
(** Uniform element, [None] on the empty list. *)
