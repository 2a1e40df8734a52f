(** Per-verifier-kind resilience policies.

    One retry budget and one breaker policy do not fit a suite whose
    checkers differ by orders of magnitude in cost: a flaked parse check
    costs microseconds to retry, while a flaked whole-network BGP
    simulation burns a meaningful slice of the round's tick budget.
    {!for_kind} gives each {!Verifier.kind} its own knobs, and every
    runtime context uses it:

    - {b Parse_check}: 4 attempts, fast backoff (base 1, cap 8), breaker
      threshold 4 with a 12-tick cooldown — cheap to retry, quick to
      re-probe.
    - {b Campion}, {b Topology}, {b Route_policies}: the library defaults
      (3 attempts, base 2/cap 16, threshold 3, cooldown 24).
    - {b Bgp_sim}: 2 attempts, slow backoff (base 4, cap 32), breaker
      threshold 2 with a 48-tick cooldown — expensive to retry, slow to
      re-probe, so the budget goes to the human path instead.

    (Named [Policies] rather than [Policy] because the router-config
    [Policy] library is already in scope throughout this library.) *)

type t = { retry : Retry.policy; breaker : Breaker.policy }

val for_kind : Verifier.kind -> t
(** The graduated table described above. *)
