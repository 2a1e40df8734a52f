(** Process-wide per-verifier resilience counters.

    Like {!Exec.Memo.stats}, one record per kind under one lock: it
    aggregates across every run (and every worker domain) since process
    start, so a parallel sweep reports the same totals as its sequential
    twin. Readers {!diff} two {!snapshot}s around a section. The counters
    feed {!Cosynth.Metrics.perf} and the bench report; they never influence
    control flow, so transcripts stay bit-reproducible. *)

type counters = {
  attempts : int;  (** Verifier invocations, including retries. *)
  retries : int;  (** Attempts after a failure (attempt 2 and later). *)
  failures : int;  (** Failed attempts (injected or short-circuited). *)
  breaker_trips : int;  (** Transitions to the open state. *)
  degraded : int;  (** Calls that gave up and degraded to the human path. *)
  max_attempts : int;
      (** High-water gauge: the deepest single call, in attempts, since
          process start — the observable face of the per-kind retry caps
          ({!Policies}). [add] and {!diff} treat it as a gauge: [add] takes
          the max, [diff] reports the section's mark (the global mark when
          the section recorded any attempt, 0 otherwise). *)
}

val zero : counters
val add : counters -> counters -> counters

val record_attempt : Verifier.kind -> unit
val record_retry : Verifier.kind -> unit
val record_failure : Verifier.kind -> unit
val record_trip : Verifier.kind -> unit
val record_degraded : Verifier.kind -> unit

val record_call_attempts : Verifier.kind -> int -> unit
(** Record that one automated call of {!Runtime.check} used this many
    attempts (a max, not a sum). *)

val snapshot : unit -> (Verifier.kind * counters) list
(** One row per kind, in {!Verifier.all_kinds} order. *)

val diff : (Verifier.kind * counters) list -> (Verifier.kind * counters) list ->
  (Verifier.kind * counters) list
(** [diff before after]: per-kind deltas. *)
