(** The per-run resilience context: one simulated clock, one breaker per
    verifier kind, one backoff-jitter stream, and a per-VPP-round tick
    deadline, all driven by one configuration.

    A context is single-threaded by construction. For a parallel fan-out
    (one synthesis task per router), {!derive} builds an independent child
    context from the configuration and a salt alone — never from the
    parent's mutable state — so pooled and sequential runs stay
    bit-identical. *)

type config = {
  chaos : Chaos.config;
  round_budget : int;
      (** Tick deadline per VPP round: once a round has burned this many
          ticks (calls, timeouts, backoff), further retries are abandoned
          and the stage degrades. *)
  stage_budget : int;
      (** Per-{e stage} tick watchdog: one {!call} may burn at most this
          many ticks across its own attempts before the stage is cancelled
          and degraded, even when the round as a whole still has budget —
          a single hung verifier can no longer eat the entire round. *)
}

val default_config : config
(** No chaos, round budget 64, stage budget 32. With this config every
    {!call} is exactly [Ok (oracle input)]. Retry and breaker knobs are
    not configurable: every context takes them from {!Policies.for_kind}
    (the expensive BGP sim gets fewer retries and a slower breaker than
    the cheap parse check). *)

val config :
  ?chaos:Chaos.config -> ?round_budget:int -> ?stage_budget:int -> unit -> config
(** {!default_config} with the given fields replaced. *)

type t

val create : ?salt:int -> config -> t
(** [salt] (default 0) is mixed into every chaos/jitter stream; the driver
    passes the run seed so a seed sweep explores distinct fault schedules
    under one configuration. *)

val derive : t -> int -> t
(** [derive t i]: an independent child context (fresh clock, breakers and
    streams) for sub-task [i], deterministic in the configuration, the
    parent salt and [i] only. *)

val arm : t -> ('i, 'o) Verifier.t -> ('i, 'o) Verifier.t
(** Install this context's chaos schedule on the verifier (no-op without
    chaos) and return it. *)

val new_round : t -> unit
(** Start a VPP round: reset the round's tick deadline. *)

type degraded = { kind : Verifier.kind; reason : string }
(** A call that gave up: the breaker was open, or retries were exhausted
    (attempts, round deadline, or a trip mid-retry). *)

val call : t -> ('i, 'o) Verifier.t -> 'i -> ('o, degraded) result
(** Run the verifier through retry/backoff under its breaker and the round
    deadline. [Error] means the stage is degraded for this round; the
    caller should consult {!Verifier.oracle} and escalate findings to the
    human. Counters land in {!Stats}. *)

val clock : t -> Clock.t
val breaker_state : t -> Verifier.kind -> Breaker.state
val breaker_trips : t -> Verifier.kind -> int
