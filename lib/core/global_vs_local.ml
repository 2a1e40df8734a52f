type strategy = As_path_regex | Deny_isp_prefixes

let strategy_to_string = function
  | As_path_regex -> "filter on AS-path regular expressions"
  | Deny_isp_prefixes -> "deny ISP prefixes at the customer router"

type global_run = {
  prompts : int;
  converged : bool;
  strategy_switches : int;
  final_strategy : strategy;
}

(* Transition model for one whole-network counterexample prompt. The rates
   encode the paper's qualitative report: oscillation dominates, staying on
   a wrong variant of the same strategy is common, outright convergence is
   rare. *)
let p_switch = 0.55
let p_converge = 0.01

let max_prompts = 30

let run_global ?(seed = 42) () =
  let rng = Netcore.Rng.make seed in
  let rec go prompts switches strategy =
    if prompts >= max_prompts then
      { prompts; converged = false; strategy_switches = switches; final_strategy = strategy }
    else
      let roll = Netcore.Rng.float rng in
      if roll < p_converge then
        {
          prompts = prompts + 1;
          converged = true;
          strategy_switches = switches;
          final_strategy = strategy;
        }
      else if roll < p_converge +. p_switch then
        let next =
          match strategy with
          | As_path_regex -> Deny_isp_prefixes
          | Deny_isp_prefixes -> As_path_regex
        in
        go (prompts + 1) (switches + 1) next
      else go (prompts + 1) switches strategy
  in
  go 0 0 As_path_regex

type comparison = {
  routers : int;
  runs : int;
  global_convergence_rate : float;
  global_mean_prompts : float;
  global_mean_switches : float;
  local_convergence_rate : float;
  local_mean_prompts : float;
}

let base_seed = 5000

let compare ?(runs = 20) ~routers () =
  let globals = List.init runs (fun i -> run_global ~seed:(base_seed + i) ()) in
  let locals =
    List.init runs (fun i ->
        (Driver.run_no_transit ~seed:(base_seed + i) ~routers ()).Driver.transcript)
  in
  let fruns = float_of_int runs in
  {
    routers;
    runs;
    global_convergence_rate =
      float_of_int (List.length (List.filter (fun g -> g.converged) globals)) /. fruns;
    global_mean_prompts =
      List.fold_left (fun acc g -> acc +. float_of_int g.prompts) 0. globals /. fruns;
    global_mean_switches =
      List.fold_left (fun acc g -> acc +. float_of_int g.strategy_switches) 0. globals
      /. fruns;
    local_convergence_rate =
      float_of_int
        (List.length (List.filter (fun (t : Driver.transcript) -> t.Driver.converged) locals))
      /. fruns;
    local_mean_prompts =
      List.fold_left
        (fun acc (t : Driver.transcript) ->
          acc +. float_of_int (t.Driver.auto_prompts + t.Driver.human_prompts))
        0. locals
      /. fruns;
  }
