(** Seeded deterministic mutation over config text.

    Every mutant is a pure function of [(seed, round, corpus)]: the fuzzer
    reports crashes as two integers, and replaying them regenerates the
    exact input. Operators model realistic LLM damage (truncation,
    duplicated/dropped lines, swapped lines, interleaved prose/CLI noise,
    pathological numbers, cross-config splices) plus raw bitflips. *)

val max_mutant_bytes : int
(** Mutants are clipped to this size so a runaway splice chain cannot turn
    the fuzz budget into an allocation benchmark. *)

val mutant : seed:int -> round:int -> corpus:string list -> string
(** The deterministic entry point: pick a corpus base and apply 1–4
    operators, all drawn from the [(seed, round)] stream (disjoint by
    construction from every {!Resilience.Chaos} stream). *)

(** {2 Weighted scheduling}

    Coverage-guided operator bias for a fuzz campaign: operators that
    participated in crashing inputs (especially ones that opened a
    previously unseen crash bucket) are drawn more often. Weights have a
    floor of 1, so no operator is ever starved. Mutants remain a pure
    function of [(seed, round, corpus)] {e given the history so far} —
    replaying a campaign from its seed list regenerates identical inputs
    and scores. *)

val n_ops : int
(** Number of operators, splice included. *)

val op_name : int -> string

type history
(** Mutable per-operator scores for one campaign. *)

val history : unit -> history
(** A fresh all-zero history (uniform schedule). *)

val reward : history -> op:int -> int -> unit
(** Add points to an operator's score (the fuzz driver pays 1 per crashing
    input an operator touched, 2 when it opened a new crash bucket). *)

val score : history -> op:int -> int

val weighted_mutant :
  seed:int -> round:int -> corpus:string list -> history:history -> string * int list
(** Like {!mutant} but drawing operators from the weighted schedule;
    returns the mutant plus the operator indices applied, in order, so the
    driver can reward them. *)
