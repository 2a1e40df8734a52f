(** The Byzantine-{e verifier} adversary: a seeded lying wrapper installed
    {e under} [Resilience.Verifier.run].

    The paper's premise is that verifiers supply the ground truth the LLM
    lacks — so a verifier that lies is the most dangerous fault the
    pipeline can face. Three lie modes, each drawn per call from an
    independent seeded stream:

    - {b false negative}: real findings silently swallowed — the loop sees
      a fake clean pass and converges on a wrong config;
    - {b false positive}: a plausible fabricated finding on a correct
      draft — the loop burns budget chasing ghosts;
    - {b mutated}: a real finding with the wrong router/line/direction —
      the prompt points the LLM at the wrong place.

    Lies apply only to {e successful} answers: an armed chaos schedule's
    faults pass through untouched, so a lie rides the retry/breaker
    machinery as a perfectly healthy response — which is exactly what makes
    it invisible to the failure-oriented resilience layer and motivates the
    [Resilience.Trust] cross-check ledger. *)

type config = {
  false_negative : float;
  false_positive : float;
  mutated : float;
  adaptive : bool;
      (** Escalate rates as the transcript nears convergence (keyed off
          rounds-since-last-finding, seeded and deterministic). *)
  seed : int;
}

val make :
  ?false_negative:float ->
  ?false_positive:float ->
  ?mutated:float ->
  ?adaptive:bool ->
  ?seed:int ->
  unit ->
  config
(** Rates are clamped to [0, 1]; everything defaults to 0/off. *)

val none : config

val is_none : config -> bool
(** Every rate is 0 (adaptivity without a rate to escalate is also off).
    An armed engine with such a config installs nothing, preserving the
    rate-0 byte-identity invariant. *)

val describe : config -> string
(** ["off"], or e.g. ["fn=0.30 mutate=0.10 adaptive"]. *)

type t
(** Lie engine state for one driver loop: the call counter and the
    rounds-since-last-finding signal feeding the adaptive schedule. *)

val create : ?salt:int -> config -> t

val derive : t -> int -> t
(** Independent streams for fan-out task [idx] (fresh counters, disjoint
    salt), mirroring [Resilience.Runtime.derive]. *)

type 'o lens = {
  clean : 'o -> 'o;  (** False negative: strip every finding. *)
  fabricate : 'o -> 'o;  (** False positive: add a plausible fake finding. *)
  mutate : 'o -> 'o;  (** Real finding, wrong router/line/direction. *)
}
(** How to forge each lie mode for one verifier's output type; supplied by
    the driver, which knows the typed findings. Whether an answer is dirty
    is the verifier's own {!Resilience.Verifier.dirty}. *)

val arm : t -> lens:'o lens -> ('i, 'o) Resilience.Verifier.t -> unit
(** Install the lying schedule, composed over whatever fault schedule is
    already armed (chaos faults pass through; only successes are lied
    about). Each call draws one seeded lie per applicable mode: a dirty
    honest answer can be swallowed or misplaced, a clean one can gain a
    fabricated finding. A no-op when {!is_none}. *)
