(** The combined adversary specification accepted by [Driver.run_* ?adversary]:
    Byzantine-LLM rates ({!Llm.config}), feedback-corruption rates
    ({!Findings.config}), verifier-lie rates ({!Verifier.config}) and the
    convergence-hardening knobs. *)

type t = {
  llm : Llm.config;
  findings : Findings.config;
  verifier : Verifier.config;
      (** Byzantine-verifier lie rates (false negative / false positive /
          mutated, plus the adaptive schedule). *)
  collusion : Collusion.config;
      (** The colluding coalition (optionally owning the cross-check
          oracle). *)
  osc_repeat : int;  (** Oscillation detector threshold ({!Watch.osc}). *)
  watchdog_rounds : int;  (** Progress watchdog K ({!Watch.progress}). *)
}

val make :
  ?llm:Llm.config ->
  ?findings:Findings.config ->
  ?verifier:Verifier.config ->
  ?collusion:Collusion.config ->
  ?osc_repeat:int ->
  ?watchdog_rounds:int ->
  unit ->
  t

val none : t

val is_none : t -> bool
(** Every rate is 0. The driver treats such a spec exactly like no spec at
    all — the unhardened code path runs and transcripts stay byte-identical
    (the rate-0 invariant the A1 and A2 gates pin). *)

val describe : t -> string
(** Includes the verifier-lie and adaptive fields, so journal and triage
    headers fully identify the attack that produced them. *)
