(** The simulated GPT-4 conversation.

    A chat holds the task's correct artifact (the oracle) and the set of
    latent faults currently present in the draft. The initial prompt samples
    faults over the artifact's injection opportunities (classes suppressed
    by an active Initial Instruction Prompt are never injected). Correction
    prompts carry structured fault references — what a real deployment would
    retain alongside the humanized text — and the per-class profile decides
    the outcome: fixed, ignored, or morphed into a successor error; any
    successful fix can also regress (introduce a fresh fault) or reintroduce
    a previously fixed one, reproducing the paper's "fix one error, but
    introduce new errors ... sometimes it even reintroduces errors that were
    previously fixed". *)

open Policy

type strength = Auto | Human

type prompt = { text : string; refs : Fault.t list; strength : strength }

type t

val start :
  ?seed:int ->
  ?iips:string list ->
  ?regression_rate:float ->
  ?reintroduction_rate:float ->
  ?force_faults:Fault.t list ->
  ?suppress_random:bool ->
  ?class_filter:(Error_class.t -> bool) ->
  ?quality:float ->
  Fault.dialect ->
  correct:Config_ir.t ->
  t
(** Build the conversation and the initial (faulty) draft. Defaults:
    seed 42, no IIPs, regression 0.12, reintroduction 0.05. With
    [~suppress_random:true] only [force_faults] are injected (used to pin
    the Table 2 scenario). [class_filter] restricts both initial sampling
    and regression to the given classes (used by the incremental-edit
    scenario, where only edit-related mistakes make sense).

    [quality] (default 0) models a better future LLM — the paper's "if a
    future LLM, say GPT-6, produces near-perfect configurations, leverage
    will decrease": at quality [q], injection rates scale by [1 - q], fix
    probabilities interpolate toward 1, and regressions scale by [1 - q]. *)

val hashed_draft : t -> Netcore.Draft.t
(** Current rendering of the draft configuration: exactly
    [Fault.render (dialect t) (correct t) (live_faults t)] with its hash,
    looked up first in one process-wide {!Netcore.Memo_table} named
    ["render_memo"], keyed on those three values (live faults in order), one
    lookup per call. The chat hashes its correct IR once at {!start} and its
    live faults whenever they change, so a lookup walks neither; a render
    hashes its text once, and the hash is stored with it. Every chat, loop,
    seed, pool domain and [serve] request shares the table, so a prompt
    that changed nothing, or a fault set an earlier loop over the same task
    met, costs no render. The table is bounded and emptied by
    {!Netcore.Memo_table.reset}. Only honest renders enter it: adversarial
    wrappers corrupt the text after this returns. *)

val draft : t -> string
(** The text of {!hashed_draft}. *)

val correct : t -> Config_ir.t
(** The task's oracle artifact (used by adversarial wrappers that re-render
    the draft, e.g. in the wrong dialect). *)

val live_faults : t -> Fault.t list
val fixed_faults : t -> Fault.t list
val dialect : t -> Fault.dialect

val respond : t -> prompt -> unit
(** Process one correction prompt; {!draft} reflects the outcome. A prompt
    whose references match no live fault changes nothing (the model "usually
    does nothing when asked to fix the error"). *)
