(** Convergence instrumentation for the driver loop: pure, deterministic
    state machines the hardened loop consults each round. *)

(** {2 Oscillation detector}

    Keeps a bounded history of draft digests. A draft repeated
    [repeat_threshold] times in a row is a period-1 cycle; an A/B/A/B tail
    (two full periods, A ≠ B) is a period-2 cycle; and any draft revisited
    at a distance of 3 to [window] rounds is a cycle of that period — one
    sighting suffices there, since a loop that reproduced a draft verbatim
    will reproduce what followed it too. Any verdict means the
    conversation is burning budget without moving. *)

type osc

val osc : ?window:int -> repeat_threshold:int -> unit -> osc
(** [repeat_threshold] is clamped to at least 2. [window] (default 8)
    bounds the revisit search for periods ≥ 3; anything below 3 disables
    that check, leaving exactly the period-1/2 detector. *)

val observe : osc -> string -> int option
(** Record one draft; [Some period] when a cycle completed on this
    observation. Detection clears the history, so the same episode is
    reported once and the detector re-arms. *)

(** {2 Progress watchdog}

    Fires after [rounds] consecutive observations in which no verifier
    stage's finding count reached a new minimum. Per-stage minima are
    non-negative and strictly decrease on progress, so with finitely many
    stages the watchdog bounds any loop whose findings stop shrinking —
    including one whose prompts are being dropped by a Byzantine layer and
    therefore never consume prompt budget. *)

type progress

val progress : rounds:int -> progress
(** [rounds] is clamped to at least 1. *)

val step : progress -> stage:string -> findings:int -> bool
(** Record one round's outstanding finding count for the stage that
    produced it. [true] = the watchdog fired: [rounds] consecutive
    non-improving rounds. The first observation of a stage counts as
    progress. *)
