type t = { retry : Retry.policy; breaker : Breaker.policy }

let default = { retry = Retry.default; breaker = Breaker.default }

(* The knobs scale with what a retry costs and what a trip protects. The
   parse check is microseconds of pure OCaml: retrying it is nearly free,
   so it gets the deepest budget and the twitchiest recovery (short
   cooldown — a flaky parser is worth re-probing early). The BGP simulation
   is the expensive end of the suite: burning attempts on a crashed sim
   wastes the round's tick budget, so it gets the shallowest budget, the
   slowest backoff, and a breaker that trips after two failures and stays
   open long past a typical outage window. The structural checkers sit at
   the defaults between those poles. *)
let for_kind = function
  | Verifier.Parse_check ->
      {
        retry =
          { Retry.max_attempts = 4; base_backoff = 1; max_backoff = 8; jitter = 0.5 };
        breaker = { Breaker.failure_threshold = 4; cooldown = 12 };
      }
  | Verifier.Bgp_sim ->
      {
        retry =
          { Retry.max_attempts = 2; base_backoff = 4; max_backoff = 32; jitter = 0.5 };
        breaker = { Breaker.failure_threshold = 2; cooldown = 48 };
      }
  | Verifier.Campion | Verifier.Topology | Verifier.Route_policies -> default
