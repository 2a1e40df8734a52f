(** Bounded retry with deterministic seeded jittered backoff.

    Backoff is exponential on the attempt number, capped, with jitter drawn
    from the runtime's splitmix64 stream — all measured in simulated ticks
    (see {!Clock}), never wall time. *)

type policy = {
  max_attempts : int;  (** Total attempts per call, including the first. *)
  base_backoff : int;  (** Ticks before the first retry. *)
  max_backoff : int;  (** Cap on the exponential term. *)
  jitter : float;  (** Extra ticks drawn uniformly in [0, jitter * backoff]. *)
}

val default : policy
(** 3 attempts, backoff 2 ticks doubling to a cap of 16, jitter 0.5. *)

val backoff : policy -> Netcore.Rng.t -> failures:int -> int
(** Ticks to wait before the next attempt, after [failures] (>= 1)
    consecutive failures. Deterministic given the RNG state. *)
