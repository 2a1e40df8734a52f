(** The Verified Prompt Programming loops (Figure 3).

    Every use case shares the shape: the LLM drafts, the verifier stages
    run in a fixed order, the humanizer turns the first outstanding finding
    of the first dirty stage into an automated prompt, and the loop
    repeats. A finding that survives [stall_threshold] automated prompts
    escalates to a (simulated) human prompt — the slow manual loop of
    Figure 2. Leverage is the ratio of automated to human prompts.

    The stage order of each use case (transcript notes in quotes):
    - translation: ["syntax"] (Junos parse check), then ["campion"];
    - no-transit, per router: ["syntax"] (Cisco parse check), then
      ["topology"], then ["semantic"] (Search Route Policies); once every
      router verifies, the ["global"] phase (simulation and/or proof)
      feeds counterexamples back to the hub, which re-runs its local
      stages;
    - incremental: ["syntax"], then ["semantic"], then one closing
      whole-network BGP check. *)

open Policy

type origin =
  | Auto
  | Human
  | Degraded
      (** Not a prompt: a transcript annotation that a verifier stage was
          unavailable (breaker open or retries exhausted) and the human ran
          the check by hand. Counts toward neither prompt total. *)
  | Stalled
      (** Not a prompt: a transcript annotation that the hardened loop's
          progress watchdog or oscillation detector ended the run. Counts
          toward neither prompt total; only emitted on adversary-on runs. *)
  | Crosscheck
      (** Not a prompt: a transcript annotation from the trust layer — a
          cross-check caught a verifier answer disagreeing with the oracle,
          a kind entered quarantine, or probation lifted one. Counts toward
          neither prompt total; only emitted when a [?trust] ledger is
          armed, so plain transcripts are unchanged. *)

(** The convergence verdict a hardened run attaches to its transcript:
    the loop converged, stalled (watchdog fired, budget exhausted, or it
    gave up on an unactionable finding — the reason says which), or was
    caught cycling with the given period. *)
type certificate = Converged | Stalled_out of string | Oscillating of int

val certificate_to_string : certificate -> string

type event = { origin : origin; prompt : string; note : string }

type transcript = {
  events : event list;
  human_prompts : int;  (** Includes the initial task prompt. *)
  auto_prompts : int;
  converged : bool;
  rounds : int;  (** Verifier passes executed. *)
  certificate : certificate option;
      (** [Some] exactly when the run was hardened (a non-trivial
          [?adversary] spec was passed); [None] keeps plain transcripts —
          markdown and JSON — byte-identical to the pre-certificate
          format. *)
}

val leverage : transcript -> float
(** [auto / human]. A transcript with zero human prompts has
    [Float.infinity] leverage when any automated prompt was sent and [0.]
    otherwise (it never happens in the standard loops, which count the
    initial task prompt as human — but summaries must not silently absorb
    the infinity; see {!Metrics.summarize}). *)

val transcript_to_markdown : title:string -> transcript -> string
(** The conversation as a markdown document: one section per prompt, tagged
    automated/human with the verifier stage that produced it. *)

val transcript_to_json : transcript -> Netcore.Json.t
(** Every event field, for byte-for-byte comparisons (the golden digests,
    the rate-0 identity pins). Sweeps journal {!outcome_to_json} instead. *)

val degraded_rounds : transcript -> int
(** The transcript's [Degraded] annotations: verifier rounds the human
    ran by hand. *)

val prompts : transcript -> int
(** Automated plus human prompts: what the run spent of its budget. *)

val stalled_out : transcript -> bool
(** The run carries a [Stalled_out] certificate: the watchdog or the
    budget ended it, so no further prompt would have helped. *)

val run_violations : budget:int -> hardened:bool -> transcript -> string list
(** The contract every seeded run is held to, replayed or fresh: it spent
    at most [budget] prompts, and it carries a convergence certificate
    exactly when it was [hardened] (a spec that is not
    {!Adversary.Spec.is_none}). One message per broken clause, empty when
    the run keeps the contract. *)

val translation_budget : int
val no_transit_budget : int
val incremental_budget : int
(** The default [max_prompts] of {!run_translation} (200),
    {!run_no_transit} (400) and {!run_incremental} (100): the [budget] a
    sweep of that use case holds its runs to unless it sets its own. *)

val outcome_to_json : transcript Exec.Supervisor.outcome -> Netcore.Json.t
(** The journal line of one sweep seed — the only journal format of the
    seeded sweeps ([cosynth chaos] and [adversary]; the bench C2 resume
    check): prompt counts, convergence,
    rounds, degraded rounds and the certificate of a completed run, or
    the attempts and reason of an abandoned one (a crashed run is
    abandoned after one attempt). *)

val outcome_of_json : Netcore.Json.t -> transcript Exec.Supervisor.outcome option
(** Inverse of {!outcome_to_json} up to event text: a replayed transcript
    carries one placeholder [Degraded] event per degraded round, so every
    summary line and {!run_violations} recompute identically. [None] on
    shape mismatch — e.g. a line of an older codec — which a resumed
    sweep answers by re-running the seed. *)

(** {2 Use case 1: Cisco → Juniper translation} *)

type class_outcome = {
  class_ : Llmsim.Error_class.t;
  fixed_by_generated_prompt : bool;
      (** False when the class needed a human prompt or first morphed into a
          different error (the paper's Table 2 "No" rows). *)
}

type translation_result = {
  transcript : transcript;
  final_text : string;  (** The last Juniper draft. *)
  outcomes : class_outcome list;  (** Per error class seen during the run. *)
  verified : bool;  (** Batfish and Campion both clean at the end. *)
}

val run_translation :
  ?seed:int ->
  ?force_faults:Llmsim.Fault.t list ->
  ?suppress_random:bool ->
  ?max_prompts:int ->
  ?stall_threshold:int ->
  ?quality:float ->
  ?resilience:Resilience.Runtime.config ->
  ?adversary:Adversary.Spec.t ->
  ?trust:Resilience.Trust.config ->
  ?trust_ledger:Resilience.Trust.t ->
  cisco_text:string ->
  unit ->
  translation_result
(** [quality] (default 0) simulates a better future LLM; see
    {!Llmsim.Chat.start}.

    [resilience] (default {!Resilience.Runtime.default_config}: no chaos)
    drives every verifier call through retry/backoff, a per-verifier
    circuit breaker and a per-round tick deadline. When a stage stays down,
    the loop records a [Degraded] event and the simulated human runs the
    check by hand, so its findings arrive as human prompts — an outage
    shows up as reduced leverage, never as a hang or an exception. Under
    any fault schedule the loop terminates with [converged = true] or an
    explicit non-converged transcript within [max_prompts]. With every
    chaos rate 0 the transcript is byte-identical to the unwrapped loop.

    [adversary] (default: none) arms the Byzantine layer: the LLM's drafts
    and responses pass through {!Adversary.Llm}, verifier findings pass
    through {!Adversary.Findings}, and the loop is hardened with an
    oscillation detector (a detected cycle escalates to a human prompt,
    repeated cycles end the run), a progress watchdog (K rounds with no
    shrinking finding set end the run) and a convergence {!certificate} on
    the transcript. Under any adversary rates in [0, 1] the loop terminates
    within [max_prompts]; a spec with every rate 0 is treated exactly like
    no spec, keeping transcripts byte-identical.

    The spec's [verifier] field arms the Byzantine-{e verifier} layer: each
    wrapped checker's successful answers pass through a seeded lying
    schedule ({!Adversary.Verifier}) that can swallow real findings,
    fabricate fake ones, or misplace a real finding — installed under the
    chaos schedule, so lies ride the retry/breaker machinery as healthy
    responses.

    [trust] (default: none) arms the {!Resilience.Trust} defense: the
    driver spends a bounded cross-check budget re-running suspicious
    answers (findings, and clean passes right after dirty ones) against
    the raw oracle; a disagreement is a detected lie — the oracle's answer
    is used (its findings escalate to the human) and the kind's trust is
    debited; below the threshold the kind is quarantined, its checks
    hand-run until probation re-runs restore it. Cross-check, quarantine
    and probation outcomes land in the transcript as [Crosscheck]
    annotations. With honest verifiers the ledger changes no transcript
    bytes — cross-checks that agree are silent.

    The cross-check oracle is no longer unconditional ground truth: a
    clean answer the oracle {e agrees} with may still be a coalition lie
    (the spec's [collusion] field arms {!Adversary.Collusion}, optionally
    compromising the oracle itself), so the trust layer spends a separate
    audit budget hand-running such agreements as quorum referees — an
    overruled agreement debits the kind {e and} the oracle, and a
    quarantined oracle drops out of cross-checks (hand-run answers are
    authoritative) until oracle probation restores it. In honest runs the
    referee is the very call that just agreed, so audits are silent and
    byte-identity holds.

    [trust_ledger] passes an existing {!Resilience.Trust.t} instance
    instead of a fresh [create] — the persistence hook: the caller seeds it
    from {!Resilience.Trust.Ledger_store} state and reads the evolved state
    back after the run, so quarantine survives kill/resume cycles. Takes
    precedence over [trust]. *)

val table2_faults : cisco_text:string -> Llmsim.Fault.t list
(** One representative fault per Table 2 row, targeted at the reference
    config — used to pin the Table 2 reproduction. *)

(** {2 Use case 2: no-transit on a star network} *)

type final_check = Simulate | Prove | Both
(** How the global no-transit policy is checked once every router verifies
    locally: the paper's whole-network BGP simulation, the Lightyear-style
    modular proof, or both (they must agree — the proof is sound). *)

type synthesis_result = {
  transcript : transcript;
  configs : (string * Config_ir.t) list;
  per_router_verified : (string * bool) list;
  global_ok : bool;
  global_violations : string list;
  proof : Lightyear.result option;  (** Set when [final_check] involves the proof. *)
}

val check_global :
  final_check ->
  Netcore.Star.t ->
  (string * Config_ir.t) list ->
  (bool * string list) * Lightyear.result option
(** The whole-network check that closes {!run_no_transit} and
    {!run_incremental}: [((ok, violations), proof)], where [Simulate] runs
    {!Modularizer.no_transit_holds} and answers no proof, [Prove] runs
    {!Lightyear.prove_no_transit}, and [Both] requires both to pass. The
    answer is looked up first in one process-wide {!Netcore.Memo_table}
    named ["global_memo"], keyed on all three arguments, one lookup per
    oracle call. It is shared by every loop, seed, pool domain and [serve]
    request and emptied by {!Netcore.Memo_table.reset}. It is the oracle
    inside the loops' wrapped global verifier, so injected faults, lies and
    trust cross-checks act on top of it and never enter the table. *)

val run_no_transit :
  ?seed:int ->
  ?use_iips:bool ->
  ?max_prompts:int ->
  ?final_check:final_check ->
  ?pool:Exec.Pool.t ->
  ?force_hub_faults:Llmsim.Fault.t list ->
  ?resilience:Resilience.Runtime.config ->
  ?adversary:Adversary.Spec.t ->
  ?trust:Resilience.Trust.config ->
  ?trust_ledger:Resilience.Trust.t ->
  routers:int ->
  unit ->
  synthesis_result
(** [use_iips] defaults to true (the paper supplies the IIPs); switching it
    off is the S1 ablation. [final_check] defaults to [Simulate]. A
    finding escalates to the human after 2 automated prompts.

    The routers are {!Modularizer.plan}'s tasks. Each router's synthesis
    is an independent task (own chat, own derived seed, own prompt
    accounting merged back in task order), so passing [pool] fans the
    routers across worker domains with bit-identical results to the
    sequential run. [force_hub_faults] injects faults into the hub's chat
    on top of the seeded sample, e.g. a crossed policy attachment to
    deterministically exercise the global phase.

    Faults that pass every local check (crossed policy attachments) surface
    only in the global phase; the driver then feeds a whole-network
    counterexample prompt back to the hub's chat — the "global feedback"
    the paper found far less actionable than local findings — escalating to
    the human as usual.

    [resilience] wraps every checker (syntax, topology, route policies and
    the whole-network check itself) as for {!run_translation}; each router
    task runs under an independent derived context so pooled fan-out stays
    bit-identical and one router's outage cannot trip a sibling's breaker.
    The remaining prompt budget is split evenly across the fan-out, so even
    a fault schedule that burns prompts on every router keeps the merged
    transcript within [max_prompts]. *)

(** {2 Extension: incremental policy addition}

    The paper's closing question: "Can GPT-4 add a new policy incrementally
    without interfering with existing verified policy?" Starting from the
    verified no-transit network, the hub is asked to prepend the AS path on
    routes exported to one ISP; the simulated LLM's edit-specific mistakes
    (inserting the new term before the verified deny stanzas, or editing the
    wrong route map) are caught by the same local specs plus the new prepend
    requirement. *)

type incremental_result = {
  inc_transcript : transcript;
  hub_config : Config_ir.t;
  specs_hold : bool;  (** Old specs and the new one, at the end. *)
  global_ok : bool;  (** No-transit still holds network-wide. *)
  interference_caught : bool;
      (** A violation of the {e pre-existing} policy was raised (and
          repaired) during the run — the verifier protecting the verified
          configuration. *)
}

val run_incremental :
  ?seed:int ->
  ?max_prompts:int ->
  ?resilience:Resilience.Runtime.config ->
  ?adversary:Adversary.Spec.t ->
  ?trust:Resilience.Trust.config ->
  ?trust_ledger:Resilience.Trust.t ->
  routers:int ->
  unit ->
  incremental_result
(** The new policy prepends the hub AS twice on routes exported to R2,
    and a finding escalates to the human after 2 automated prompts. [resilience]
    as for {!run_translation} — it covers every stage end to end, the
    closing whole-network BGP check included: under chaos that check can
    degrade to a hand-run simulation ([Degraded] event), never an
    unchecked exception. *)
