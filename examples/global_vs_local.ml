(* The Section 4.1 experiment: global versus local policy prompting.

   With a single global no-transit specification and whole-network
   counterexamples, the (simulated) LLM oscillates between its two
   "innovative strategies"; with per-router local policies the loop
   converges every time.

   Run with: dune exec examples/global_vs_local.exe *)

let () =
  print_endline "=== One global-prompting run, step by step ===";
  let g = Cosynth.Global_vs_local.run_global ~seed:11 () in
  Printf.printf
    "after %d counterexample prompts: %s, %d strategy switches, final strategy: %s\n"
    g.Cosynth.Global_vs_local.prompts
    (if g.Cosynth.Global_vs_local.converged then "converged" else "still wrong — gave up")
    g.Cosynth.Global_vs_local.strategy_switches
    (Cosynth.Global_vs_local.strategy_to_string g.Cosynth.Global_vs_local.final_strategy);

  print_endline "\n=== 25 runs of each strategy ===";
  let c = Cosynth.Global_vs_local.compare ~runs:25 ~routers:7 () in
  Printf.printf "global spec : %.0f%% convergence, %.1f prompts, %.1f switches on average\n"
    (100. *. c.Cosynth.Global_vs_local.global_convergence_rate)
    c.Cosynth.Global_vs_local.global_mean_prompts
    c.Cosynth.Global_vs_local.global_mean_switches;
  Printf.printf "local specs : %.0f%% convergence, %.1f prompts on average\n"
    (100. *. c.Cosynth.Global_vs_local.local_convergence_rate)
    c.Cosynth.Global_vs_local.local_mean_prompts;
  print_endline
    "\nThe paper's lesson 4: \"the user needs to decide and describe the 'roles' \
     each node plays in satisfying the global spec\"."
