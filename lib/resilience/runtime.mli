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
      (** Per-{e stage} tick watchdog: one {!check} may burn at most this
          many ticks across its own attempts before the stage is cancelled
          and degraded, even when the round as a whole still has budget —
          a single hung verifier can no longer eat the entire round. *)
}

val default_config : config
(** No chaos, round budget 64, stage budget 32. With this config and no
    trust ledger every {!check} is exactly [Checked (oracle input)]. Retry
    and breaker knobs are not configurable: every context takes them from
    {!Policies.for_kind} (the expensive BGP sim gets fewer retries and a
    slower breaker than the cheap parse check). *)

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

(** What {!check} reports, in order, for the caller's transcript: the
    automated call gave up, for this reason, and the check was hand-run
    ([Degraded]); a cross-check caught the kind lying ([Caught_lying]); the
    kind or the oracle service fell below the trust threshold
    ([Quarantined], [Oracle_quarantined]) or was restored after this many
    agreeing probation re-runs ([Restored], [Oracle_restored]); a quorum
    audit's referee was outvoted by, or overruled, the clean pass the kind
    and the oracle service agree on ([Outvoted], [Overruled]). *)
type note =
  | Degraded of Verifier.kind * string
  | Caught_lying of Verifier.kind
  | Quarantined of Verifier.kind
  | Restored of Verifier.kind * int
  | Outvoted of Verifier.kind
  | Overruled of Verifier.kind
  | Oracle_quarantined
  | Oracle_restored of int

(** [Checked]: the automated answer, vetted where a ledger asked.
    [Hand_checked]: the hand-run answer, because the stage degraded, the
    kind is quarantined, or a referee's answer replaced the kind's; the
    caller escalates its findings to the human. [Crashed]: the oracle
    itself raised on this input, so there is no answer. *)
type 'o verdict = Checked of 'o | Hand_checked of 'o | Crashed of Guard.crash

val check :
  t -> ?trust:Trust.t -> note:(note -> unit) -> ('i, 'o) Verifier.t -> 'i -> 'o verdict
(** One hardened verifier stage, in this order.

    + {b Breaker and retry.} The verifier runs through retry and backoff
      under its breaker, the stage watchdog and the round deadline (counters
      land in {!Stats}). Without faults this is exactly the oracle's answer.
    + {b Degraded fallback.} When that gives up, [Degraded] is noted and the
      simulated human runs the pristine oracle by hand.
    + {b Trust vetting}, only with a ledger. A quarantined kind skips the
      steps above: the hand-run answer stands, and one direct run of the
      kind is its probation re-run (an injected fault leaves the streak
      alone). Otherwise a suspicious answer ({!Trust.should_check}) is
      cross-checked against one referee: the oracle service, or the
      hand-run check while the oracle is quarantined, with the service
      riding along on its own probation (with no service installed, the
      service is that same pristine check, so it agrees without a second
      run). A disagreement returns the
      referee's answer. A clean agreement with a trusted oracle may open a
      quorum audit ({!Trust.should_audit}, {!Trust.quorum_verdict}) whose
      referee is the hand-run check. Whenever a truthful answer is known,
      the kind's suspicion trigger is re-anchored to it
      ({!Trust.note_truth}), so a caught false negative cannot launder the
      kind's history. The oracle's quarantine is read once, before the
      referee runs: an oracle restored on this call opens no audit on it.
    + {b Crash firewall.} A raise from the hand-run check or the oracle
      service becomes [Crashed]. *)

val breaker_state : t -> Verifier.kind -> Breaker.state
val breaker_trips : t -> Verifier.kind -> int
