(** The Section 4.1 observation, as a quantified experiment: specifying the
    global no-transit policy at once makes the LLM oscillate between
    strategies under whole-network counterexample feedback, while local
    per-router policies converge.

    The global-prompting side is a calibrated stochastic model of the
    behaviour the paper reports ("GPT-4 was confused and kept oscillating
    between incorrect strategies"): each counterexample either flips the
    strategy (AS-path regex filtering vs. denying ISP prefixes at the
    customer router), leaves a still-wrong config, or — rarely — lands a
    correct one. The local side runs the real per-router VPP loop. *)

type strategy = As_path_regex | Deny_isp_prefixes

val strategy_to_string : strategy -> string

type global_run = {
  prompts : int;
  converged : bool;
  strategy_switches : int;
  final_strategy : strategy;
}

val run_global : ?seed:int -> unit -> global_run
(** One global-prompting run of the stochastic model: at most 30
    whole-network counterexample prompts. The model does not depend on
    the size of the network. *)

type comparison = {
  routers : int;
  runs : int;
  global_convergence_rate : float;
  global_mean_prompts : float;
  global_mean_switches : float;
  local_convergence_rate : float;
  local_mean_prompts : float;
}

val compare : ?runs:int -> routers:int -> unit -> comparison
(** [runs] (default 20) seeds of each side, from 5000; the local side
    runs {!Driver.run_no_transit} on a [routers]-router star. *)
