(** Leverage statistics over many seeded runs, plus the performance
    instrumentation (wall clock, verifier-memo hit rates, pool
    utilization) the bench harness reports alongside them. *)

type summary = {
  runs : int;
  converged : int;
  mean_auto : float;
  mean_human : float;
  mean_leverage : float;  (** Over the finite-leverage runs only. *)
  stddev_leverage : float;  (** Over the finite-leverage runs only. *)
  min_leverage : float;
  max_leverage : float;
  infinite_leverage : int;
      (** Runs with zero human prompts ({!Driver.leverage} is infinite);
          excluded from the mean/stddev/range instead of poisoning them. *)
  stalled : int;
      (** Hardened runs whose certificate is [Stalled_out] (watchdog,
          budget or give-up); 0 on plain sweeps. *)
  oscillating : int;
      (** Hardened runs whose certificate is [Oscillating]; 0 on plain
          sweeps. *)
}

val summarize : Driver.transcript list -> summary

val translation_summary :
  ?runs:int -> ?base_seed:int -> ?pool:Exec.Pool.t -> cisco_text:string -> unit -> summary

val no_transit_summary :
  ?runs:int ->
  ?base_seed:int ->
  ?use_iips:bool ->
  ?pool:Exec.Pool.t ->
  routers:int ->
  unit ->
  summary
(** Both summaries fan their seeded runs across [pool] when given
    ({!Exec.Sweep.run_seeds}); the seeds, and therefore the transcripts and
    every statistic, are identical with or without the pool. *)

val pp_summary : Format.formatter -> summary -> unit
(** One line; stalled/oscillating counts are appended only when nonzero, so
    plain-sweep output is unchanged from the pre-adversary format. *)

val certificates : Driver.transcript list -> (string * int) list
(** Tally of {!Driver.certificate_to_string} over a sweep, first-seen
    order; transcripts without a certificate count under ["(none)"]. *)

(** {2 Performance instrumentation} *)

type perf = {
  wall_s : float;  (** Wall-clock seconds for the measured section. *)
  pool_size : int;  (** Worker domains used; 0 = sequential. *)
  memo_hits : int;  (** {!Exec.Memo} hits during the section. *)
  memo_misses : int;
  pool_utilization : float;
      (** Worker busy time / (wall * workers) during the section, in
          [0, 1]; 0 when sequential. *)
  verifier : (Resilience.Verifier.kind * Resilience.Stats.counters) list;
      (** Per-verifier resilience counter deltas ({!Resilience.Stats})
          during the section, in {!Resilience.Verifier.all_kinds} order. *)
  supervisor : Exec.Supervisor.counters;
      (** Supervised-execution deltas (worker losses, requeues, abandoned
          tasks) during the section; all zero without a supervisor. *)
  trust : Resilience.Trust.snapshot;
      (** Per-verifier trust-layer deltas (cross-checks, detected lies,
          quarantines) during the section; all zero without a [?trust]
          ledger armed. *)
  quorum : Resilience.Trust.quorum_counters;
      (** Quorum-audit deltas (audits, overruled collusions, oracle
          quarantines/restores) during the section; all zero without a
          trust ledger, and zero under honest verifiers even with one. *)
}

val measure : ?pool:Exec.Pool.t -> (unit -> 'a) -> 'a * perf
(** Run the thunk and capture wall clock plus memo/pool/resilience counter
    deltas. *)

val memo_hit_rate : perf -> float

val verifier_table : title:string -> perf -> string
(** The per-verifier resilience counters as a {!Report.table}: one row per
    verifier kind that saw any activity during the section (all-zero kinds
    are dropped so a chaos-free run renders an empty table), under a
    totals footer. *)

val trust_totals : perf -> Resilience.Trust.counters
(** Sum of the per-kind trust deltas. *)

val trust_rows : perf -> string list list
(** Rows for {!Report.table} under {!trust_header}, one per verifier kind
    with any cross-check or probation activity (all-zero kinds dropped, so
    a trust-off run renders an empty table). *)

val trust_header : string list

val pp_perf : Format.formatter -> perf -> unit
(** One line; the verifier totals, trust totals and the supervisor's
    loss/requeue/abandoned deltas are appended only when any such activity
    happened, so chaos-free output is unchanged. *)
