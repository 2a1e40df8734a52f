(** A per-verifier-kind reputation ledger, the defense against Byzantine
    (lying) verifiers.

    The chaos layer models verifiers that {e fail}; the Byzantine layer
    models verifiers that {e lie} — a swallowed finding produces a fake
    clean pass the loop happily converges on, and PR 5's headline already
    showed that leverage alone cannot detect a poisoned feedback signal.
    This module keeps one trust score per {!Verifier.kind}, fed by
    cross-check outcomes: a disagreement debits trust, and a kind that
    falls below the threshold is {e quarantined} until enough consecutive
    agreeing probation re-runs restore it. It keeps the state only;
    {!Runtime.check} runs the vetting protocol.

    What counts as suspicious: any answer carrying findings, and a clean
    pass immediately after a dirty one (the false-negative signature — the
    draft just changed, so "suddenly clean" deserves a second opinion). A
    kind's very first clean pass is suspicious too, so a round-one false
    negative cannot slip through unchecked. *)

type config = {
  probation : int;
      (** Consecutive agreeing probation re-runs required to lift a
          quarantine (clamped to >= 1, so quarantine exit is always
          reachable under honest behavior). *)
  check_budget : int;
      (** Maximum voluntary cross-checks per ledger instance; probation
          re-runs ride on calls the quarantined path makes anyway and are
          not charged against it. *)
  quorum : int;
      (** Quorum size K for collusion audits (clamped to >= 2): the suspect
          and the oracle service are two members, the hand-run referee
          stands in for the remaining [max 1 (K-2)] independent members.
          The default 4 defeats a fresh two-party coalition; 3 is the
          deliberately-too-small knob the bench sweeps. *)
  audit_budget : int;
      (** Maximum quorum audits per ledger instance (clamped to >= 0),
          charged separately from [check_budget] so PR 8 trust
          trajectories are untouched. 0 restores oracle-as-ground-truth. *)
}

val default_config : config
(** Probation 3, budget 16, quorum 4 and audit budget 8. The score scale
    is fixed: every score starts at (and is capped by) 1.0, a disagreement
    debits 0.4, an agreement credits 0.02, and a score below 0.5 is
    quarantined — so two disagreements quarantine a kind, and one
    overruled collusion (a double debit) quarantines the oracle. *)

type t
(** One ledger per driver loop (mirroring {!Runtime.create}): fan-out
    tasks get independent {!derive}d ledgers so pooled runs stay
    deterministic. *)

val create : config -> t
val derive : t -> t
(** A fresh ledger with the same configuration (fan-out tasks). *)

val quarantined : t -> Verifier.kind -> bool
val score : t -> Verifier.kind -> float
val checks_spent : t -> int

val should_check : t -> Verifier.kind -> dirty:bool -> bool
(** Spend a cross-check on this answer? True when the answer is
    suspicious (see above), the kind is not already quarantined, and
    budget remains — in which case one unit of budget is consumed.
    While the {e oracle} is quarantined the ledger is in alert mode:
    every answer from a non-quarantined kind is suspicious (a compromised
    oracle proves a coalition with unknown membership) and the check is
    free, since the budget bounds only oracle-service calls. *)

val note_truth : t -> Verifier.kind -> dirty:bool -> unit
(** Set the suspicious-clean trigger to a truthful answer's dirtiness,
    replacing the suspect's that {!should_check} recorded. *)

val agree : t -> Verifier.kind -> unit
(** Record a cross-check that matched the oracle. *)

val disagree : t -> Verifier.kind -> [ `Ok | `Quarantined ]
(** Record a detected lie. [`Quarantined] exactly when this disagreement
    pushed the kind below the threshold. *)

val probation : t -> Verifier.kind -> agree:bool -> [ `Still | `Restored of int ]
(** Record a probation re-run of a quarantined kind. [`Restored n] after
    [n] consecutive agreements, with the score back at 1.0; a disagreement
    resets the streak. No-op ([`Still]) when the kind is not
    quarantined. *)

(** {2 Quorum cross-checks}

    The collusion defense: a coalition that owns the cross-check oracle
    makes every cross-check agree with the lie, so a clean agreement may be
    audited by referee votes in a K-member weighted quorum. An overruled
    agreement debits both the suspect kind and the oracle itself. *)

val oracle_quarantined : t -> bool
val oracle_score : t -> float
val audits_spent : t -> int

val should_audit : t -> Verifier.kind -> bool
(** Spend a quorum audit on a clean agreement? True when audit budget
    remains, neither the kind nor the oracle is quarantined, and the kind's
    trust-weighted share of the budget is not exhausted — in which case one
    audit is consumed. Trust-informed scheduling: shares are proportional
    to current scores (ceiling division, floor 1), so audit budget
    concentrates on the high-trust kinds whose lies would do the most
    damage. *)

val quorum_verdict : t -> Verifier.kind -> [ `Overruled of bool * bool | `Outvoted ]
(** Resolve an audit whose referee {e disagreed} with the suspect+oracle
    clean camp. [`Overruled (kind_quarantined, oracle_quarantined)] when
    the referee votes carry the quorum: the kind is debited via
    {!disagree} and the oracle debited alongside (the two booleans flag
    threshold crossings on this call), and the audit charge is refunded —
    the budget bounds what auditing {e honest} agreements may cost, never
    the pursuit of a proven coalition (refunds are bounded because two
    overrules quarantine the oracle, which stops all audits).
    [`Outvoted] when the camp's combined trust outweighs the referees
    (quorum too small — the K=3 failure mode the bench pins). *)

val oracle_probation : t -> agree:bool -> [ `Still | `Restored of int ]
(** Record a probation comparison of the (quarantined) oracle service
    against a hand-run answer; the same streak step as {!probation}. *)

(** {2 Global counters}

    Process-wide tallies in the {!Stats} idiom — one record per kind plus
    one quorum record, under one lock — so the bench harness and CLI can
    report cross-check activity as snapshot diffs around a measured
    section. Each event is counted once, here; a ledger keeps only its
    budgets. *)

type counters = {
  cross_checks : int;
  agreements : int;
  disagreements : int;  (** Detected lies. *)
  quarantines : int;
  restores : int;
  probation_runs : int;
}

val zero : counters

type snapshot = (Verifier.kind * counters) list

val snapshot : unit -> snapshot
val diff : snapshot -> snapshot -> snapshot
(** [diff before after]: per-kind deltas. *)

val totals : snapshot -> counters

type quorum_counters = {
  audits : int;
  overruled : int;  (** Audits where the referee carried the quorum. *)
  outvoted : int;  (** Audits lost to the camp's combined trust. *)
  oracle_quarantines : int;
  oracle_restores : int;
  oracle_probations : int;
}

val zero_quorum : quorum_counters
val diff_quorum : quorum_counters -> quorum_counters -> quorum_counters
(** [diff_quorum before after]. *)

val quorum_snapshot : unit -> quorum_counters
(** Process-wide quorum tallies (one record, not per-kind: the oracle is a
    single shared service). Kept separate from the PR 8 counters so
    collusion-free runs report byte-identical trust lines. *)

val quorum_active : quorum_counters -> bool
(** Any field nonzero — gates the new report/CLI lines so they only appear
    when the quorum layer actually did something. *)

(** {2 Persistent trust ledger}

    An fsync'd JSONL store in the {!Exec.Checkpoint} discipline: one
    last-write-wins line per seed carrying the cumulative trust state
    after that seed plus the per-seed counter deltas. Loaded at sweep and
    serve start and persisted as runs complete, so quarantine survives
    kill/resume cycles. *)

module Ledger_store : sig
  type cell_state = { s_score : float; s_quarantined : bool }

  type entry = {
    kinds : (Verifier.kind * cell_state) list;
    oracle : cell_state;
    counters : counters;  (** Per-run delta of the PR 8 counters. *)
    quorum : quorum_counters;  (** Per-run delta of the quorum counters. *)
  }

  val entry_to_json : entry -> Netcore.Json.t
  val entry_of_json : Netcore.Json.t -> entry option

  val merge : entry -> entry -> entry
  (** Commutative, associative: quarantine ORs, scores take the minimum,
      counter deltas sum — ledger entries merge deterministically
      regardless of arrival order within a seed tier. *)

  type handle

  val open_ : ?truncate:bool -> string -> handle
  val record : handle -> seed:int -> entry -> unit
  (** Append one fsync'd line (thread-safe, last-write-wins by seed). *)

  val close : handle -> unit

  val load : string -> entry option
  (** Fold the surviving lines in seed order with {!merge}; [None] for a
      missing/empty/unparseable file. *)
end

val state_of : t -> counters:counters -> quorum:quorum_counters -> Ledger_store.entry
(** This ledger's current state as a persistable entry; the caller supplies
    the per-run counter deltas (global snapshot diffs around the run). *)

val create_from : config -> Ledger_store.entry -> t
(** A fresh ledger seeded from persisted state: scores and quarantine flags
    are restored (scores capped at 1.0); probation streaks, budgets
    and suspicion history start fresh. [create_from cfg] of an
    all-initial-scores entry behaves identically to [create cfg]. *)

(** {2 Ledger session}

    The per-run threading every trust-armed sweep or daemon does with a
    persistent ledger: each run starts from the cumulative state, and a
    kept run lands one line with its evolved state and counter deltas. *)

type ledger

val open_ledger : string -> ledger
(** Load the file's folded state, print a one-line notice on stderr
    ("recording to" a fresh file, "resuming trust state from" a used one)
    and open the file for appending. *)

val with_ledger :
  ledger option -> seed:int -> keep:('a -> bool) -> (t option -> 'a) -> 'a
(** [with_ledger (Some l) ~seed ~keep f] runs [f] on a fresh {!t} with
    {!default_config}, seeded from [l]'s state with {!create_from}
    ({!create} while the state is empty). When [keep] accepts the result, the run's {!state_of}, with the
    global counter deltas across [f], is recorded under [seed] and folded
    into the state with {!Ledger_store.merge}. An exception from [f]
    records nothing and propagates. [with_ledger None ~seed ~keep f] is
    [f None]. Not reentrant: the counter deltas are process-wide, so runs
    on one ledger must not overlap. *)

val ledger_state : ledger -> Ledger_store.entry option
(** The cumulative state: the file's at open, then every kept run's. *)

val close_ledger : ledger -> unit
