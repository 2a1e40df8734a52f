(* The CoSynth command-line interface.

   Subcommands:
   - topology   generate the Figure-4 star network (text + JSON)
   - parse      run the Batfish-style syntax check on a config file
   - diff       run the Campion-style differ on an original and a translation
   - verify     run the topology verifier on a router's config
   - translate  run the translation VPP loop on a Cisco config
   - synth      run the no-transit VPP loop on an n-router star
   - sim        simulate BGP over a topology and print the converged RIBs
   - prove      prove no-transit from the local policies (no simulation)
   - leverage   multi-seed leverage summaries for both use cases
   - chaos      a seeded fault-injection sweep over either VPP loop
   - adversary  a seeded Byzantine-LLM and lying-verifier sweep
   - serve      the persistent synthesis daemon on a Unix-domain socket
   - client     send jobs to a running serve daemon
   - fuzz       mutation-fuzz every pipeline stage behind the Guard firewall
   - triage     print the crash-bucket table of a triage journal
   - fsck       check (and optionally compact) a durable store file *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let print_diags diags =
  List.iter (fun d -> Printf.printf "%s\n" (Netcore.Diag.to_string d)) diags

(* ------------------------------------------------------------------ *)
(* topology                                                            *)
(* ------------------------------------------------------------------ *)

let topology_cmd =
  let run n json =
    let star = Netcore.Star.make ~routers:n in
    if json then print_endline (Netcore.Json.to_string ~pretty:true (Netcore.Star.to_json star))
    else print_string (Netcore.Star.description star);
    0
  in
  let n =
    Arg.(value & opt int 7 & info [ "n"; "routers" ] ~docv:"N" ~doc:"Number of routers.")
  in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit the JSON dictionary.") in
  Cmd.v
    (Cmd.info "topology" ~doc:"Generate the Figure-4 star network description")
    Term.(const run $ n $ json)

(* ------------------------------------------------------------------ *)
(* parse                                                               *)
(* ------------------------------------------------------------------ *)

let dialect_conv =
  let parse = function
    | "cisco" | "ios" -> Ok Batfish.Parse_check.Cisco_ios
    | "junos" | "juniper" -> Ok Batfish.Parse_check.Junos
    | s -> Error (`Msg (Printf.sprintf "unknown dialect %S (cisco|junos)" s))
  in
  let print ppf d = Format.pp_print_string ppf (Batfish.Parse_check.dialect_name d) in
  Arg.conv (parse, print)

let parse_cmd =
  let run dialect file =
    let _, diags = Batfish.Parse_check.check dialect (read_file file) in
    print_diags diags;
    if List.exists Netcore.Diag.is_error diags then 1 else 0
  in
  let dialect =
    Arg.(
      required
      & opt (some dialect_conv) None
      & info [ "d"; "dialect" ] ~docv:"DIALECT" ~doc:"cisco or junos.")
  in
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  Cmd.v
    (Cmd.info "parse" ~doc:"Syntax-check a configuration (Batfish-style)")
    Term.(const run $ dialect $ file)

(* ------------------------------------------------------------------ *)
(* diff                                                                *)
(* ------------------------------------------------------------------ *)

let diff_cmd =
  let run original translation =
    let orig_ir, d1 = Cisco.Parser.parse (read_file original) in
    let trans_ir, d2 = Juniper.Parser.parse (read_file translation) in
    print_diags (List.filter Netcore.Diag.is_error (d1 @ d2));
    let findings = Campion.Differ.compare ~original:orig_ir ~translation:trans_ir in
    if findings = [] then (
      print_endline "No differences found.";
      0)
    else (
      List.iter
        (fun f -> Printf.printf "- %s\n" (Campion.Differ.finding_to_string f))
        findings;
      1)
  in
  let original =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"CISCO_ORIGINAL")
  in
  let translation =
    Arg.(required & pos 1 (some file) None & info [] ~docv:"JUNOS_TRANSLATION")
  in
  Cmd.v
    (Cmd.info "diff" ~doc:"Compare a Cisco original with a Juniper translation (Campion-style)")
    Term.(const run $ original $ translation)

(* ------------------------------------------------------------------ *)
(* verify                                                              *)
(* ------------------------------------------------------------------ *)

let verify_cmd =
  let run topo_file router config_file =
    let json = Netcore.Json.of_string_exn (read_file topo_file) in
    let ir, diags = Cisco.Parser.parse (read_file config_file) in
    print_diags (List.filter Netcore.Diag.is_error diags);
    match Topoverify.Verifier.check_from_json json ~router ir with
    | Error e ->
        prerr_endline e;
        2
    | Ok [] ->
        print_endline "Configuration matches the topology.";
        0
    | Ok findings ->
        List.iter
          (fun f -> Printf.printf "- %s\n" f.Topoverify.Verifier.message)
          findings;
        1
  in
  let topo =
    Arg.(
      required
      & opt (some file) None
      & info [ "t"; "topology" ] ~docv:"JSON" ~doc:"Topology dictionary (JSON).")
  in
  let router =
    Arg.(
      required
      & opt (some string) None
      & info [ "r"; "router" ] ~docv:"NAME" ~doc:"Router name in the topology.")
  in
  let config = Arg.(required & pos 0 (some file) None & info [] ~docv:"CONFIG") in
  Cmd.v
    (Cmd.info "verify" ~doc:"Check a Cisco config against a JSON topology dictionary")
    Term.(const run $ topo $ router $ config)

(* ------------------------------------------------------------------ *)
(* translate                                                           *)
(* ------------------------------------------------------------------ *)

let print_transcript (t : Cosynth.Driver.transcript) verbose =
  if verbose then
    List.iter
      (fun (e : Cosynth.Driver.event) ->
        let tag =
          match e.Cosynth.Driver.origin with
          | Cosynth.Driver.Auto -> "auto "
          | Cosynth.Driver.Human -> "HUMAN"
          | Cosynth.Driver.Degraded -> "degrd"
          | Cosynth.Driver.Stalled -> "STALL"
          | Cosynth.Driver.Crosscheck -> "XCHCK"
        in
        let text = e.Cosynth.Driver.prompt in
        let text =
          if String.length text > 120 then String.sub text 0 117 ^ "..." else text
        in
        Printf.printf "[%s] %s\n" tag (String.map (fun c -> if c = '\n' then ' ' else c) text))
      t.Cosynth.Driver.events;
  Printf.printf
    "\nprompts: %d automated, %d human; leverage %.1fx; converged: %b\n"
    t.Cosynth.Driver.auto_prompts t.Cosynth.Driver.human_prompts
    (Cosynth.Driver.leverage t) t.Cosynth.Driver.converged;
  match t.Cosynth.Driver.certificate with
  | None -> ()
  | Some c ->
      Printf.printf "certificate: %s\n" (Cosynth.Driver.certificate_to_string c)

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let translate_cmd =
  let run file seed verbose show_config transcript_out =
    let cisco_text = match file with Some f -> read_file f | None -> Cisco.Samples.border_router in
    let r = Cosynth.Driver.run_translation ~seed ~cisco_text () in
    print_transcript r.Cosynth.Driver.transcript verbose;
    Printf.printf "verified: %b\n" r.Cosynth.Driver.verified;
    (match transcript_out with
    | Some path ->
        write_file path
          (Cosynth.Driver.transcript_to_markdown ~title:"Cisco to Juniper translation"
             r.Cosynth.Driver.transcript);
        Printf.printf "transcript written to %s\n" path
    | None -> ());
    if show_config then (
      print_endline "\n--- final Juniper configuration ---";
      print_string r.Cosynth.Driver.final_text);
    if r.Cosynth.Driver.verified then 0 else 1
  in
  let file =
    Arg.(
      value
      & pos 0 (some Arg.file) None
      & info [] ~docv:"CISCO_CONFIG" ~doc:"Defaults to the bundled border router.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N") in
  let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print every prompt.") in
  let show = Arg.(value & flag & info [ "show-config" ] ~doc:"Print the final config.") in
  let transcript_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "transcript" ] ~docv:"FILE" ~doc:"Write the conversation as markdown.")
  in
  Cmd.v
    (Cmd.info "translate"
       ~doc:"Run the Cisco-to-Juniper translation VPP loop (use case 1)")
    Term.(const run $ file $ seed $ verbose $ show $ transcript_out)

(* ------------------------------------------------------------------ *)
(* synth                                                               *)
(* ------------------------------------------------------------------ *)

let synth_cmd =
  let run n seed no_iips verbose outdir prove =
    let final_check = if prove then Cosynth.Driver.Both else Cosynth.Driver.Simulate in
    let r =
      Cosynth.Driver.run_no_transit ~seed ~use_iips:(not no_iips) ~final_check ~routers:n ()
    in
    print_transcript r.Cosynth.Driver.transcript verbose;
    Printf.printf "global no-transit policy holds: %b\n" r.Cosynth.Driver.global_ok;
    (match r.Cosynth.Driver.proof with
    | Some Cosynth.Lightyear.Proved ->
        print_endline "modular proof: the local policies imply the global one"
    | Some (Cosynth.Lightyear.Refuted ref_) ->
        Printf.printf "modular proof REFUTED: %s -> %s\n" ref_.Cosynth.Lightyear.from_spoke
          ref_.Cosynth.Lightyear.to_spoke
    | Some (Cosynth.Lightyear.Inapplicable why) ->
        Printf.printf "modular proof inapplicable: %s\n" why
    | None -> ());
    List.iter (fun v -> Printf.printf "violation: %s\n" v) r.Cosynth.Driver.global_violations;
    (match outdir with
    | Some dir ->
        if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
        List.iter
          (fun (name, ir) ->
            let path = Filename.concat dir (name ^ ".cfg") in
            let oc = open_out path in
            output_string oc (Cisco.Printer.print ir);
            close_out oc;
            Printf.printf "wrote %s\n" path)
          r.Cosynth.Driver.configs
    | None -> ());
    if r.Cosynth.Driver.global_ok then 0 else 1
  in
  let n = Arg.(value & opt int 7 & info [ "n"; "routers" ] ~docv:"N") in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N") in
  let no_iips =
    Arg.(value & flag & info [ "no-iips" ] ~doc:"Disable the Initial Instruction Prompts.")
  in
  let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print every prompt.") in
  let outdir =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"DIR" ~doc:"Write the final .cfg files here.")
  in
  let prove =
    Arg.(
      value & flag
      & info [ "prove" ]
          ~doc:"Also run the Lightyear-style modular proof as the global check.")
  in
  Cmd.v
    (Cmd.info "synth" ~doc:"Run the no-transit synthesis VPP loop (use case 2)")
    Term.(const run $ n $ seed $ no_iips $ verbose $ outdir $ prove)

(* ------------------------------------------------------------------ *)
(* sim and prove: a topology and a directory of configs                *)
(* ------------------------------------------------------------------ *)

(* The topology dictionary in [file], handed to [k]; a malformed one is
   reported on stderr and exits 2. *)
let with_topology file k =
  match Netcore.Topology.of_json (Netcore.Json.of_string_exn (read_file file)) with
  | Error e ->
      prerr_endline e;
      2
  | Ok topology -> k topology

(* Every [<router>.cfg] in [dir], in name order, parsed as Cisco IOS into
   [(router, IR)]; parse errors are reported on stderr. *)
let parse_config_dir dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".cfg")
  |> List.sort compare
  |> List.map (fun f ->
         let ir, diags = Cisco.Parser.parse (read_file (Filename.concat dir f)) in
         List.iter
           (fun d ->
             if Netcore.Diag.is_error d then Printf.eprintf "%s: %s\n" f (Netcore.Diag.to_string d))
           diags;
         (Filename.chop_suffix f ".cfg", ir))

let sim_cmd =
  let run topo_file dir router =
    with_topology topo_file @@ fun topology ->
    let configs = parse_config_dir dir in
    let ribs = Batfish.Bgp_sim.run { Batfish.Bgp_sim.topology; configs } in
    let show name =
      Printf.printf "== %s ==\n" name;
      List.iter
        (fun (e : Batfish.Bgp_sim.rib_entry) ->
          Printf.printf "  %s%s\n"
            (Netcore.Route.to_string e.Batfish.Bgp_sim.route)
            (match e.Batfish.Bgp_sim.learned_from with
            | Some n -> " (via " ^ n ^ ")"
            | None -> " (local)"))
        (Batfish.Bgp_sim.rib ribs name)
    in
    (match router with
    | Some r -> show r
    | None -> List.iter show (Batfish.Bgp_sim.routers ribs));
    0
  in
  let topo =
    Arg.(
      required
      & opt (some file) None
      & info [ "t"; "topology" ] ~docv:"JSON" ~doc:"Topology dictionary (JSON).")
  in
  let dir =
    Arg.(
      required
      & opt (some dir) None
      & info [ "c"; "configs" ] ~docv:"DIR" ~doc:"Directory of <router>.cfg files.")
  in
  let router =
    Arg.(
      value
      & opt (some string) None
      & info [ "r"; "router" ] ~docv:"NAME" ~doc:"Show only this router's RIB.")
  in
  Cmd.v
    (Cmd.info "sim" ~doc:"Simulate BGP over a topology and print converged RIBs")
    Term.(const run $ topo $ dir $ router)

(* ------------------------------------------------------------------ *)
(* prove                                                               *)
(* ------------------------------------------------------------------ *)

let prove_cmd =
  let run topo_file dir =
    with_topology topo_file @@ fun topology ->
    (* The proof applies to star networks following the generator's
       conventions: hub R1, spokes R2..Rn, customer network 10.0.0.0/24. *)
    let star =
      {
        Netcore.Star.topology;
        hub = "R1";
        spokes =
          List.filter_map
            (fun (r : Netcore.Topology.router) ->
              if r.Netcore.Topology.name = "R1" then None
              else Some r.Netcore.Topology.name)
            topology.Netcore.Topology.routers;
        customer_prefix = Netcore.Prefix.of_string_exn "10.0.0.0/24";
      }
    in
    (match Cosynth.Lightyear.prove_no_transit star (parse_config_dir dir) with
    | Cosynth.Lightyear.Proved ->
        print_endline "PROVED: the local policies imply the global no-transit policy.";
        0
    | Cosynth.Lightyear.Refuted r ->
        Printf.printf "REFUTED: a route from %s can reach %s%s\n"
          r.Cosynth.Lightyear.from_spoke r.Cosynth.Lightyear.to_spoke
          (match r.Cosynth.Lightyear.example with
          | Some e -> Printf.sprintf " (e.g. %s)" (Netcore.Route.to_string e)
          | None -> "");
        1
    | Cosynth.Lightyear.Inapplicable why ->
        Printf.printf "INAPPLICABLE: %s\n" why;
        2)
  in
  let topo =
    Arg.(
      required
      & opt (some file) None
      & info [ "t"; "topology" ] ~docv:"JSON" ~doc:"Star topology dictionary (JSON).")
  in
  let dir =
    Arg.(
      required
      & opt (some dir) None
      & info [ "c"; "configs" ] ~docv:"DIR" ~doc:"Directory of <router>.cfg files.")
  in
  Cmd.v
    (Cmd.info "prove"
       ~doc:"Prove no-transit from the local policies (Lightyear-style, no simulation)")
    Term.(const run $ topo $ dir)

(* ------------------------------------------------------------------ *)
(* shared sweep plumbing (leverage / chaos / adversary)                *)
(* ------------------------------------------------------------------ *)

let verifier_stats_footer =
  Cosynth.Metrics.verifier_table ~title:"per-verifier resilience counters"

let use_case_name = function
  | `Translation -> "translation"
  | `No_transit -> "no-transit"
  | `Incremental -> "incremental"

(* The seeded subcommands' use-case vocabulary, restricted to [cases]. *)
let use_case_conv cases =
  Arg.conv
    ( (fun s ->
        match List.find_opt (fun c -> use_case_name c = s) cases with
        | Some c -> Ok c
        | None -> Error (`Msg (Printf.sprintf "unknown use case %S" s))),
      fun ppf c -> Format.pp_print_string ppf (use_case_name c) )

(* The driver defaults; the invariant under any schedule is that the
   merged transcript stays within them and the loop never raises. *)
let use_case_budget = function
  | `Translation -> Cosynth.Driver.translation_budget
  | `No_transit -> Cosynth.Driver.no_transit_budget
  | `Incremental -> Cosynth.Driver.incremental_budget

(* The seed range of `chaos` and `adversary`: [--runs]
   consecutive seeds from [--seed] over one use case, with each
   subcommand's default use case and network size. Gives
   [(use_case, routers, seed, seeds)]. *)
let sweep_term ~use_case ~routers =
  let use_case =
    Arg.(
      value
      & opt (use_case_conv [ `Translation; `No_transit; `Incremental ]) use_case
      & info [ "use-case" ] ~docv:"CASE" ~doc:"translation, no-transit or incremental.")
  in
  let runs = Arg.(value & opt int 20 & info [ "runs" ] ~docv:"N") in
  let routers = Arg.(value & opt int routers & info [ "routers" ] ~docv:"N") in
  let seed =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"N"
          ~doc:"Sweep base seed and the seed of its fault, lie and adversary \
                streams; the sweep is exactly reproducible from the seed and \
                the rates.")
  in
  Term.(
    const (fun use_case runs routers seed ->
        (use_case, routers, seed, List.init runs (fun i -> seed + i)))
    $ use_case $ runs $ routers $ seed)

(* The Resilience.Chaos rates plus --lie-fn, set on `chaos`. Gives
   [(chaos, in_flight, lie_fn)]; the chaos config is keyed on seed 0
   until the sweep re-keys it. *)
let chaos_rates_term =
  let rate name doc = Arg.(value & opt float 0. & info [ name ] ~docv:"R" ~doc) in
  let crash = rate "crash-rate" "Per-call crash probability (outage window, feeds the breaker)." in
  let timeout = rate "timeout-rate" "Per-call timeout probability (burns the round's tick budget)." in
  let flake = rate "flake-rate" "Per-call transient-failure probability (a retry may succeed)." in
  let truncate = rate "truncate-rate" "Per-call truncated-findings probability (discarded, never a pass)." in
  let worker_loss =
    rate "worker-loss-rate"
      "Per-dispatch probability that the worker domain running a seed dies; \
       the supervisor requeues the seed (bounded retries) and abandons it \
       when the budget is spent."
  in
  let in_flight =
    rate "worker-loss-in-flight"
      "Fraction of worker losses that strike mid-task instead of at \
       dispatch: the seed runs to completion but its result dies with the \
       domain, so the retry repeats work that already happened. Varying \
       this never changes which dispatches are lost."
  in
  let lie_fn =
    rate "lie-fn"
      "Per-check probability a verifier swallows its real findings (false \
       negative), on top of the chaos schedule; keyed on $(b,--seed)."
  in
  Term.(
    const (fun crash_rate timeout_rate flake_rate truncate_rate worker_loss_rate in_flight lie_fn ->
        ( Resilience.Chaos.make ~crash_rate ~timeout_rate ~flake_rate ~truncate_rate
            ~worker_loss_rate ~seed:0 (),
          in_flight,
          lie_fn ))
    $ crash $ timeout $ flake $ truncate $ worker_loss $ in_flight $ lie_fn)

(* Gives [(trust, trust_ledger)], where a ledger implies --trust: a
   persisted ledger with the trust layer off would never change. *)
let trust_term =
  let trust =
    Arg.(
      value & flag
      & info [ "trust" ]
          ~doc:"Arm the cross-check trust ledger: suspicious answers are \
                re-run against the raw oracle on a bounded budget, detected \
                liars are quarantined (hand-run checks, findings escalate to \
                human prompts) until probation clears. A journaled sweep \
                needs $(b,--trust-ledger) to carry it across a resume.")
  in
  let trust_ledger =
    Arg.(
      value
      & opt (some string) None
      & info [ "trust-ledger" ] ~docv:"FILE"
          ~doc:"Persist the trust layer's state to $(docv), one fsync'd JSON \
                line per completed seed (per-kind and oracle trust scores, \
                quarantine flags, and that run's counter deltas). An existing \
                ledger is loaded first, so quarantine earned before a kill \
                is in force from the first run. Implies $(b,--trust).")
  in
  Term.(
    const (fun trust trust_ledger -> (trust || trust_ledger <> None, trust_ledger))
    $ trust $ trust_ledger)

(* Gives [(journal_path, resume, halt_after)]. *)
let journal_term =
  let path =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"FILE"
          ~doc:"Record each completed seed to $(docv) (one fsync'd JSON line \
                per run). Without $(b,--resume) an existing file is \
                truncated.")
  in
  let resume =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:"Skip the seeds already recorded in $(b,--journal) and \
                reproduce the identical output from the mix of journaled \
                and fresh runs. Refused without $(b,--journal).")
  in
  let halt_after =
    Arg.(
      value
      & opt (some int) None
      & info [ "halt-after" ] ~docv:"N"
          ~doc:"Simulate a crash: exit 3 before running the N+1th fresh \
                (non-journaled) seed. With $(b,--journal)/$(b,--trust-ledger) \
                a subsequent $(b,--resume) run completes the sweep with \
                byte-identical output.")
  in
  Term.(const (fun p r h -> (p, r, h)) $ path $ resume $ halt_after)

let usage_error fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "error: %s\n%!" msg;
      exit 2)
    fmt

(* A pool larger than Exec.Pool.max_size, asked for by -j or by
   COSYNTH_POOL_SIZE, is a usage error: refuse it before a domain spawns. *)
let check_pool_size jobs =
  let n = Option.value jobs ~default:(Exec.Pool.default_size ()) in
  if n > Exec.Pool.max_size then
    usage_error "pool size %d exceeds the cap of %d worker domains" n
      Exec.Pool.max_size

(* Refused before any file is opened. A --resume without a journal would
   quietly re-run every seed the caller believed safe. A resumed sweep
   replays journaled transcripts without re-running their cross-checks, so
   its trust lines can match an uninterrupted run's only when a ledger
   carries the per-seed counter deltas. *)
let check_journal_flags (journal_path, resume, _) (trust, trust_ledger) =
  if resume && journal_path = None then usage_error "--resume requires --journal FILE";
  if trust && journal_path <> None && trust_ledger = None then
    usage_error
      "--trust cannot be combined with --journal (add --trust-ledger FILE to \
       persist cross-check state across resume)"

(* The seed runner `chaos` and `adversary` share. It opens the trust
   ledger, then the journal (notices on stderr: a resumed sweep's stdout
   must be byte-identical to an uninterrupted one), and hands [body] the
   journal and [step], which wraps each fresh seed's run. Only fresh
   (non-journaled) seeds reach [step], so --halt-after counts exactly the
   runs this process contributed. Each seed runs against the cumulative
   ledger state — a quarantine earned by an earlier seed or a killed
   predecessor is already in force — and a
   completed run lands one fsync'd ledger line. The journal holds one
   {!Cosynth.Driver.outcome_to_json} line per seed. Both files are closed
   on every exit path, the simulated crash included. *)
let with_sweep ~journal:(path, resume, halt_after) ~trust_ledger body =
  let ledger = Option.map Resilience.Trust.open_ledger trust_ledger in
  let journal =
    Option.map
      (fun path ->
        let j =
          Exec.Sweep.journal ~resume ~path ~encode:Cosynth.Driver.outcome_to_json
            ~decode:Cosynth.Driver.outcome_of_json ()
        in
        (match Exec.Sweep.journaled_seeds j with
        | [] -> Printf.eprintf "journal: recording to %s\n%!" path
        | done_ ->
            Printf.eprintf "journal: resuming %d completed seed(s) from %s\n%!"
              (List.length done_) path);
        j)
      path
  in
  let close () =
    Option.iter Exec.Sweep.journal_close journal;
    Option.iter Resilience.Trust.close_ledger ledger
  in
  let fresh = ref 0 in
  let step seed run =
    (match halt_after with
    | Some n when !fresh >= n ->
        Printf.eprintf "journal: halting after %d fresh run(s) (simulated crash)\n%!" n;
        close ();
        exit 3
    | _ -> ());
    incr fresh;
    Resilience.Trust.with_ledger ledger ~seed
      ~keep:(fun o -> not (Exec.Supervisor.abandoned o))
      run
  in
  Fun.protect ~finally:close (fun () -> body journal step)

(* One VPP loop of the sweep's use case, reduced to its transcript;
   [trust] arms the cross-checks with the default trust config. *)
let run_loop use_case ~routers ~seed ?resilience ?max_prompts ~adversary ~trust
    ?trust_ledger () =
  let trust = if trust then Some Resilience.Trust.default_config else None in
  match use_case with
  | `Translation ->
      (Cosynth.Driver.run_translation ~seed ?resilience ?max_prompts ~adversary ?trust
         ?trust_ledger ~cisco_text:Cisco.Samples.border_router ())
        .Cosynth.Driver.transcript
  | `No_transit ->
      (Cosynth.Driver.run_no_transit ~seed ?resilience ?max_prompts ~adversary ?trust
         ?trust_ledger ~routers ())
        .Cosynth.Driver.transcript
  | `Incremental ->
      (Cosynth.Driver.run_incremental ~seed ?resilience ?max_prompts ~adversary ?trust
         ?trust_ledger ~routers ())
        .Cosynth.Driver.inc_transcript

let record_triage ~seed =
  Option.iter (fun path ->
      Resilience.Triage.record ~path ~seed ();
      Printf.printf "triage: %d crash bucket(s) appended to %s\n"
        (List.length (Resilience.Guard.crashes ()))
        path)

(* The contract violations of a sweep's seeds, in seed order: every
   completed run, replayed or fresh, is held to
   {!Cosynth.Driver.run_violations}; an abandoned seed is one only when
   [crashes] says abandonment means the run raised. *)
let seed_violations ~budget ~hardened ~crashes seeded =
  List.concat_map
    (fun (seed, o) ->
      match o with
      | Exec.Supervisor.Completed t ->
          List.map (Printf.sprintf "seed %d: %s" seed)
            (Cosynth.Driver.run_violations ~budget ~hardened t)
      | Exec.Supervisor.Abandoned { reason; _ } ->
          if crashes then [ Printf.sprintf "seed %d raised: %s" seed reason ] else [])
    seeded

(* The Byzantine-verifier spec of a `chaos` sweep: only its false-negative
   rate is a flag, and a rate-0 spec leaves the runs unhardened. *)
let chaos_adversary ~seed lie_fn =
  Adversary.Spec.make
    ~verifier:(Adversary.Verifier.make ~false_negative:lie_fn ~seed ())
    ()

(* Print the block a chaos-style sweep ends with — fault schedule, leverage
   summary, degraded-round count, abandoned seeds — and return the
   contract violations in seed order. *)
let print_sweep_summary ~chaos ~use_case ~adversary seeded =
  let transcripts = List.filter_map (fun (_, o) -> Exec.Supervisor.completed o) seeded in
  let degraded =
    List.fold_left (fun acc t -> acc + Cosynth.Driver.degraded_rounds t) 0 transcripts
  in
  Printf.printf "fault schedule: %s\n" (Resilience.Chaos.describe chaos);
  Format.printf "%a@." Cosynth.Metrics.pp_summary
    (Cosynth.Metrics.summarize transcripts);
  Printf.printf "degraded (hand-checked) verifier rounds: %d\n" degraded;
  List.iter
    (function
      | run_seed, Exec.Supervisor.Abandoned { attempts; reason } ->
          Printf.printf "abandoned seed %d after %d attempt(s): %s\n" run_seed
            attempts reason
      | _, Exec.Supervisor.Completed _ -> ())
    seeded;
  seed_violations ~budget:(use_case_budget use_case)
    ~hardened:(not (Adversary.Spec.is_none adversary))
    ~crashes:false seeded

(* The trust and quorum summary lines a trust-armed sweep ends with. The
   quorum line is keyed on activity, so it appears only when cross-checks
   actually audited and every pre-quorum output shape is unchanged. *)
let print_trust_lines (d : Resilience.Trust.counters)
    (q : Resilience.Trust.quorum_counters) =
  Printf.printf "trust: checks=%d lies-detected=%d quarantines=%d restores=%d\n"
    d.Resilience.Trust.cross_checks d.Resilience.Trust.disagreements
    d.Resilience.Trust.quarantines d.Resilience.Trust.restores;
  if Resilience.Trust.quorum_active q then
    Printf.printf
      "quorum: audits=%d collusions-detected=%d outvoted=%d \
       oracle-quarantines=%d oracle-restores=%d\n"
      q.Resilience.Trust.audits q.Resilience.Trust.overruled
      q.Resilience.Trust.outvoted q.Resilience.Trust.oracle_quarantines
      q.Resilience.Trust.oracle_restores

(* End a trust-armed sweep with its trust lines. With a persistent ledger
   the lines are replayed from its folded per-seed counter deltas, so a
   killed and resumed sweep reprints the exact lines of an uninterrupted
   one; otherwise the sweep's measured trust deltas serve. *)
let print_trust (trust, trust_ledger) (perf : Cosynth.Metrics.perf) =
  if trust then
    match Option.bind trust_ledger Resilience.Trust.Ledger_store.load with
    | Some e ->
        print_trust_lines e.Resilience.Trust.Ledger_store.counters
          e.Resilience.Trust.Ledger_store.quorum
    | None ->
        print_trust_lines (Cosynth.Metrics.trust_totals perf) perf.Cosynth.Metrics.quorum

(* ------------------------------------------------------------------ *)
(* leverage                                                            *)
(* ------------------------------------------------------------------ *)

let leverage_cmd =
  let run use_case runs routers jobs =
    check_pool_size jobs;
    let pool = Exec.Pool.create ?domains:jobs () in
    (* The exception is trapped inside the measured thunk so the counter
       deltas survive an abort: a sweep that dies halfway still reports
       what its verifiers were doing when it died. *)
    let outcome, perf =
      Cosynth.Metrics.measure ~pool (fun () ->
          try
            Ok
              (match use_case with
              | `Translation ->
                  Cosynth.Metrics.translation_summary ~runs ~pool
                    ~cisco_text:Cisco.Samples.border_router ()
              | `No_transit -> Cosynth.Metrics.no_transit_summary ~runs ~routers ~pool ())
          with e -> Error e)
    in
    Exec.Pool.shutdown pool;
    match outcome with
    | Ok s ->
        Format.printf "%a@." Cosynth.Metrics.pp_summary s;
        Format.printf "%a@." Cosynth.Metrics.pp_perf perf;
        if s.Cosynth.Metrics.converged < s.Cosynth.Metrics.runs then 1 else 0
    | Error e ->
        Format.printf "%a@." Cosynth.Metrics.pp_perf perf;
        print_string (verifier_stats_footer perf);
        Printf.eprintf "error: sweep aborted: %s\n%!" (Printexc.to_string e);
        1
  in
  let use_case =
    Arg.(
      value
      & opt (use_case_conv [ `Translation; `No_transit ]) `Translation
      & info [ "use-case" ] ~docv:"CASE" ~doc:"translation or no-transit.")
  in
  let runs = Arg.(value & opt int 20 & info [ "runs" ] ~docv:"N") in
  let routers = Arg.(value & opt int 7 & info [ "routers" ] ~docv:"N") in
  let jobs =
    Arg.(
      value
      & opt (some int) None
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Worker domains for the seeded sweep (default: COSYNTH_POOL_SIZE or the \
             machine; 0 = sequential). Results are identical at any setting.")
  in
  Cmd.v
    (Cmd.info "leverage"
       ~doc:"Multi-seed leverage summary (exits nonzero unless every run converged)")
    Term.(const run $ use_case $ runs $ routers $ jobs)

(* ------------------------------------------------------------------ *)
(* disk chaos (the shared --disk-* flags)                              *)
(* ------------------------------------------------------------------ *)

(* One cmdliner term shared by chaos/adversary/serve: a seeded
   Diskchaos configuration consulted by every Durable.Store write the
   run makes (journals, trust ledgers, triage, corpus promotion). All
   rates default to 0 — the all-zero configuration is never installed,
   so fault-free runs keep the exact fast path. *)
let disk_chaos_term =
  let rate name doc = Arg.(value & opt float 0. & info [ name ] ~docv:"R" ~doc) in
  let short =
    rate "disk-short-rate"
      "Per-write probability of a detected short write: the store rolls \
       the file back and reports the record as not journaled (a resume \
       re-runs the seed)."
  in
  let torn =
    rate "disk-torn-rate"
      "Per-write probability of a silent torn write (the kernel claims \
       success): caught by the CRC frame at replay, skipped and counted, \
       never decoded."
  in
  let io_error = rate "disk-io-error-rate" "Per-write probability of EIO." in
  let enospc = rate "disk-enospc-rate" "Per-write probability of ENOSPC." in
  let fsync_fail =
    rate "disk-fsync-fail-rate"
      "Per-fsync probability the durability barrier fails: the record is \
       not counted as journaled; replay dedup absorbs the possible \
       duplicate line after the seed is re-run."
  in
  let seed =
    Arg.(
      value & opt int 0
      & info [ "disk-seed" ] ~docv:"N"
          ~doc:
            "Seed for the disk fault streams (keyed on (seed, salt, path), \
             so two stores never share a stream and a re-run draws the \
             identical schedule).")
  in
  let crash_after =
    Arg.(
      value
      & opt (some int) None
      & info [ "disk-crash-after" ] ~docv:"N"
          ~doc:
            "Simulated process death: the first $(docv) store operations \
             (writes, fsyncs, renames) succeed, the next one kills the \
             process with exit status 3 — the $(b,--halt-after) \
             convention — leaving a torn line for recovery to skip.")
  in
  Term.(
    const (fun short torn io_error enospc fsync_fail seed crash_after ->
        Durable.Diskchaos.make ~short_rate:short ~torn_rate:torn
          ~io_error_rate:io_error ~enospc_rate:enospc
          ~fsync_fail_rate:fsync_fail ?crash_after ~seed ())
    $ short $ torn $ io_error $ enospc $ fsync_fail $ seed $ crash_after)

let disk_chaos_arm disk =
  if not (Durable.Diskchaos.is_none disk) then begin
    Durable.Diskchaos.install disk;
    Printf.eprintf "disk-chaos: armed: %s\n%!" (Durable.Diskchaos.describe disk)
  end

(* Stderr-only: the stdout of a faulted run that still completes must stay
   byte-identical to the fault-free run (the durable-smoke drills cmp it). *)
let disk_chaos_footer disk =
  if not (Durable.Diskchaos.is_none disk) then begin
    let s = Durable.Diskchaos.stats () in
    Printf.eprintf
      "disk-chaos: %d op(s): %d short, %d torn, %d io-error, %d enospc, %d \
       fsync-fail\n\
       %!"
      s.Durable.Diskchaos.ops s.Durable.Diskchaos.shorts
      s.Durable.Diskchaos.torn s.Durable.Diskchaos.io_errors
      s.Durable.Diskchaos.enospc s.Durable.Diskchaos.fsync_failures
  end

(* An injected crash must end the process like a real one: exit 3, the
   kill/resume convention --halt-after established, after the Fun.protect
   finalizers on the way out have closed every journal handle. *)
let exit_on_disk_crash f =
  try f ()
  with Durable.Diskchaos.Crashed what ->
    Printf.eprintf "disk-chaos: simulated crash during %s\n%!" what;
    exit 3

(* ------------------------------------------------------------------ *)
(* chaos                                                               *)
(* ------------------------------------------------------------------ *)

let chaos_cmd =
  let run (use_case, routers, seed, seeds) (chaos, in_flight, lie_fn)
      ((trust, trust_ledger) as trust_flags) journal_flags triage_path disk verbose =
   exit_on_disk_crash @@ fun () ->
    if triage_path <> None then Resilience.Guard.reset ();
    disk_chaos_arm disk;
    (* Validated before the sweep runs: discovering a flag error only
       after a multi-hour sweep would be its own kind of fault. *)
    check_journal_flags journal_flags trust_flags;
    (* The fault and lie streams are keyed on --seed. A rate-0 lie spec is
       treated by the driver exactly like no spec, keeping lie-free sweeps
       byte-identical. *)
    let chaos = { chaos with Resilience.Chaos.seed } in
    let resilience = Resilience.Runtime.config ~chaos () in
    let plan = Resilience.Chaos.worker_plan ~in_flight chaos ~salt:0 in
    let adversary = chaos_adversary ~seed lie_fn in
    (* The abort trap lives inside the measured thunk so the per-verifier
       counter deltas survive: a sweep that dies halfway still reports what
       its verifiers were doing when it died. *)
    let (outcomes, aborted), perf =
      with_sweep ~journal:journal_flags ~trust_ledger @@ fun journal step ->
      Cosynth.Metrics.measure (fun () ->
          try
            ( Exec.Sweep.run_seeds ?journal ~seeds (fun s ->
                  step s @@ fun trust_ledger ->
                  Exec.Supervisor.run_one ~plan ~index:s (fun () ->
                      run_loop use_case ~routers ~seed:s ~resilience ~adversary
                        ~trust ?trust_ledger ())),
              None )
          with
          (* A simulated disk crash is a process death, not a sweep
             abort: let it reach the exit-3 handler (the protecting
             finalizers close the journal and ledger on the way). *)
          | Durable.Diskchaos.Crashed _ as c -> raise c
          | e -> ([], Some e))
    in
    disk_chaos_footer disk;
    let seeded = if outcomes = [] then [] else List.combine seeds outcomes in
    let violations = print_sweep_summary ~chaos ~use_case ~adversary seeded in
    print_trust trust_flags perf;
    if verbose || aborted <> None then print_string (verifier_stats_footer perf);
    record_triage ~seed triage_path;
    List.iter (fun v -> Printf.printf "VIOLATION: %s\n" v) violations;
    match aborted with
    | Some e ->
        Printf.eprintf "error: sweep aborted: %s\n%!" (Printexc.to_string e);
        1
    | None -> if violations <> [] then 1 else 0
  in
  let triage_path =
    Arg.(
      value
      & opt (some string) None
      & info [ "triage" ] ~docv:"FILE"
          ~doc:"Append every Guard crash bucket from this sweep to $(docv) \
                (JSONL; read back with $(b,cosynth triage)). Resets the \
                in-process registry first so the rows cover this sweep only.")
  in
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print the per-verifier counter table.")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Fault-injection sweep over a VPP loop: every run must terminate within \
          its prompt budget without an exception (exits nonzero otherwise)")
    Term.(
      const run
      $ sweep_term ~use_case:`No_transit ~routers:7
      $ chaos_rates_term $ trust_term $ journal_term $ triage_path $ disk_chaos_term $ verbose)

(* ------------------------------------------------------------------ *)
(* adversary                                                           *)
(* ------------------------------------------------------------------ *)

let adversary_cmd =
  let run (use_case, routers, seed, seeds) truncated wrong_dialect stale partial_fix
      off_topic dropped duplicated misattributed garbled lie_fn lie_fp lie_mutate
      lie_adaptive collude collude_oracle collude_rate
      ((trust, trust_ledger) as trust_flags) ((journal_path, _, _) as journal_flags)
      sweep_budget triage_path disk verbose =
   exit_on_disk_crash @@ fun () ->
    Resilience.Guard.reset ();
    disk_chaos_arm disk;
    (* A budgeted sweep's per-seed allocations depend on what earlier seeds
       spent, while journal replay assumes a seed's run is a function of its
       seed alone — mixing them would replay records produced under
       different allocations, and a ledger would bake them into the
       persisted trust trajectories. Refuse loudly rather than resume
       wrongly. *)
    if sweep_budget <> None && journal_path <> None then
      usage_error "--sweep-budget cannot be combined with --journal";
    if sweep_budget <> None && trust_ledger <> None then
      usage_error "--sweep-budget cannot be combined with --trust-ledger";
    check_journal_flags journal_flags trust_flags;
    let members =
      match collude with
      | None -> []
      | Some names ->
          List.map
            (fun name ->
              match Resilience.Verifier.kind_of_name (String.trim name) with
              | Some k -> k
              | None ->
                  usage_error
                    "--collude: unknown verifier kind %S (expected a comma-separated \
                     subset of: %s)"
                    name
                    (String.concat ", "
                       (List.map Resilience.Verifier.kind_name
                          Resilience.Verifier.all_kinds)))
            (String.split_on_char ',' names)
    in
    let llm =
      Adversary.Llm.make ~truncated ~wrong_dialect ~stale ~partial_fix ~off_topic
        ~seed ()
    in
    let findings =
      Adversary.Findings.make ~dropped ~duplicated ~misattributed ~garbled ~seed ()
    in
    let verifier =
      Adversary.Verifier.make ~false_negative:lie_fn ~false_positive:lie_fp
        ~mutated:lie_mutate ~adaptive:lie_adaptive ~seed ()
    in
    let collusion =
      Adversary.Collusion.make ~members ~oracle:collude_oracle ~rate:collude_rate
        ~seed ()
    in
    let spec = Adversary.Spec.make ~llm ~findings ~verifier ~collusion () in
    let hardened = not (Adversary.Spec.is_none spec) in
    (* The invariant under any rates in [0, 1]: every run stays within the
       driver's default budget (under --sweep-budget, within the sweep's
       total, which the schedule check below tightens), never raises, and
       carries a convergence certificate exactly when the spec is
       non-trivial. A run the Guard caught is journaled as abandoned after
       one attempt, its crash string the reason, so a resumed sweep
       reprints the same violation. *)
    let run_seed ?max_prompts step s =
      step s @@ fun trust_ledger ->
      match
        Resilience.Guard.run ~label:"vpp-loop" ~fingerprint:(string_of_int s)
          (fun () ->
            run_loop use_case ~routers ~seed:s ?max_prompts ~adversary:spec ~trust
              ?trust_ledger ())
      with
      | Ok t -> Exec.Supervisor.Completed t
      | Error c ->
          Exec.Supervisor.Abandoned
            { attempts = 1; reason = Resilience.Guard.crash_to_string c }
    in
    let budget_stats = ref None in
    let outcomes, perf =
      with_sweep ~journal:journal_flags ~trust_ledger @@ fun journal step ->
      Cosynth.Metrics.measure @@ fun () ->
      match sweep_budget with
      | Some total ->
          (* Certificate-aware scheduling: each seed gets a fair share of
             what's left; a run that stalls out is abandoned at whatever it
             actually spent and the rest of its allocation flows to later
             seeds. A crash forfeits its whole allocation — there is no
             transcript to read a spend from. *)
          let out, stats =
            Exec.Sweep.run_seeds_budgeted ~budget:total ~seeds
              (fun ~seed:s ~max_prompts ->
                let o = run_seed ~max_prompts step s in
                ( o,
                  match o with
                  | Exec.Supervisor.Abandoned _ ->
                      { Exec.Sweep.spent = max_prompts; abandoned = false }
                  | Exec.Supervisor.Completed t ->
                      {
                        Exec.Sweep.spent = Cosynth.Driver.prompts t;
                        abandoned = Cosynth.Driver.stalled_out t;
                      } ))
          in
          budget_stats := Some stats;
          out
      | None -> Exec.Sweep.run_seeds ?journal ~seeds (run_seed step)
    in
    let seeded = List.combine seeds outcomes in
    let transcripts = List.filter_map Exec.Supervisor.completed outcomes in
    let violations =
      seed_violations ~hardened ~crashes:true
        ~budget:(Option.value sweep_budget ~default:(use_case_budget use_case))
        seeded
    in
    Printf.printf "adversary: %s\n" (Adversary.Spec.describe spec);
    Format.printf "%a@." Cosynth.Metrics.pp_summary
      (Cosynth.Metrics.summarize transcripts);
    print_trust trust_flags perf;
    if hardened then
      print_string
        (Cosynth.Report.counts ~title:"convergence certificates"
           (Cosynth.Metrics.certificates transcripts));
    let violations =
      match !budget_stats with
      | Some (st : Exec.Sweep.budget_stats) ->
          print_string
            (Cosynth.Report.counts ~title:"budgeted schedule"
               [
                 ("sweep budget", st.Exec.Sweep.budget);
                 ("spent", st.Exec.Sweep.spent);
                 ("abandoned early", st.Exec.Sweep.abandoned_early);
                 ("reclaimed", st.Exec.Sweep.reclaimed);
               ]);
          let total_spent =
            List.fold_left (fun acc t -> acc + Cosynth.Driver.prompts t) 0 transcripts
          in
          if total_spent > st.Exec.Sweep.budget then
            violations
            @ [
                Printf.sprintf "sweep spent %d prompts (sweep budget %d)" total_spent
                  st.Exec.Sweep.budget;
              ]
          else violations
      | None -> violations
    in
    if verbose then
      List.iter
        (function
          | run_seed, Exec.Supervisor.Completed (t : Cosynth.Driver.transcript) ->
              Printf.printf "  seed %d: %s\n" run_seed
                (match t.Cosynth.Driver.certificate with
                | Some c -> Cosynth.Driver.certificate_to_string c
                | None -> "(plain run)")
          | _, Exec.Supervisor.Abandoned _ -> ())
        seeded;
    record_triage ~seed triage_path;
    disk_chaos_footer disk;
    List.iter (fun v -> Printf.printf "VIOLATION: %s\n" v) violations;
    if violations <> [] then 1 else 0
  in
  let rate name doc = Arg.(value & opt float 0. & info [ name ] ~docv:"R" ~doc) in
  let truncated = rate "truncated" "Per-draft probability of a truncated reply." in
  let wrong_dialect =
    rate "wrong-dialect" "Per-draft probability of rendering the other dialect."
  in
  let stale =
    rate "stale" "Per-response probability of ignoring the prompt (stale draft)."
  in
  let partial_fix =
    rate "partial-fix" "Per-response probability of applying only the first fix."
  in
  let off_topic = rate "off-topic" "Per-draft probability of prose filler." in
  let dropped = rate "dropped" "Per-finding probability of silently dropping it." in
  let duplicated = rate "duplicated" "Per-finding probability of double delivery." in
  let misattributed =
    rate "misattributed" "Per-finding probability of mis-attributed references."
  in
  let garbled = rate "garbled" "Per-finding probability of garbled text, refs lost." in
  let lie_fn =
    rate "lie-fn"
      "Per-check probability a verifier swallows its real findings (false \
       negative: the loop sees a fake clean pass)."
  in
  let lie_fp =
    rate "lie-fp"
      "Per-check probability a verifier fabricates a finding on a correct \
       draft (false positive)."
  in
  let lie_mutate =
    rate "lie-mutate"
      "Per-check probability a verifier misplaces a real finding (wrong \
       router/line/direction)."
  in
  let lie_adaptive =
    Arg.(
      value & flag
      & info [ "lie-adaptive" ]
          ~doc:"Escalate the lie rates as the loop nears convergence (seeded, \
                keyed off rounds since the last finding).")
  in
  let collude =
    Arg.(
      value
      & opt (some string) None
      & info [ "collude" ] ~docv:"KINDS"
          ~doc:"Arm a verifier coalition: a comma-separated list of verifier \
                kinds (e.g. $(b,parse-check,campion)) that lie consistently — \
                every colluder suppresses the same seeded subset of real \
                findings, so pairwise cross-checks agree on the lie.")
  in
  let collude_oracle =
    Arg.(
      value & flag
      & info [ "collude-oracle" ]
          ~doc:"Compromise the cross-check oracle itself: it joins the \
                coalition and confirms the colluders' fake clean passes. \
                Only the hand-run quorum referees can catch this.")
  in
  let collude_rate =
    Arg.(
      value & opt float 0.
      & info [ "collude-rate" ] ~docv:"R"
          ~doc:"Per-check probability the coalition suppresses a dirty \
                answer. 0 (the default) disarms the coalition entirely and \
                keeps output byte-identical to a sweep without $(b,--collude).")
  in
  let sweep_budget =
    Arg.(
      value
      & opt (some int) None
      & info [ "sweep-budget" ] ~docv:"T"
          ~doc:"Certificate-aware scheduling: share a total prompt budget of \
                $(docv) across the sweep (fair-share per remaining seed). A \
                run that stalls out is abandoned early and its unspent \
                allocation is reclaimed for later seeds. Incompatible with \
                $(b,--journal).")
  in
  let triage_path =
    Arg.(
      value
      & opt (some string) None
      & info [ "triage" ] ~docv:"FILE"
          ~doc:"Append every Guard crash bucket from this sweep to $(docv) \
                (JSONL; read back with $(b,cosynth triage)).")
  in
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print each run's certificate.")
  in
  Cmd.v
    (Cmd.info "adversary"
       ~doc:
         "Byzantine-LLM sweep over a VPP loop: seeded misbehaviour and feedback \
          corruption at the given per-mode rates; every run must terminate within \
          its prompt budget with a convergence certificate (exits nonzero \
          otherwise)")
    Term.(
      const run
      $ sweep_term ~use_case:`Translation ~routers:5
      $ truncated $ wrong_dialect $ stale $ partial_fix $ off_topic $ dropped
      $ duplicated $ misattributed $ garbled $ lie_fn $ lie_fp $ lie_mutate
      $ lie_adaptive $ collude $ collude_oracle $ collude_rate $ trust_term
      $ journal_term $ sweep_budget $ triage_path $ disk_chaos_term $ verbose)

(* ------------------------------------------------------------------ *)
(* serve / client                                                      *)
(* ------------------------------------------------------------------ *)

let serve_cmd =
  let run socket jobs round_budget_cap stage_budget_cap max_in_flight max_queue
      max_per_client max_deadline_ms retry_after_ms io_timeout_ms drain_grace_ms
      admission_file triage_path trust_ledger_path debug_jobs supervise
      max_restarts disk =
    check_pool_size jobs;
    (* The supervisor sets COSYNTH_SERVE_RESTARTS for every daemon it
       spawns; a process started with it set is such a daemon and never
       supervises, so the respawned argv may keep --supervise. *)
    let restarts_env = Sys.getenv_opt "COSYNTH_SERVE_RESTARTS" in
    if supervise && restarts_env = None then begin
      (* Supervisor mode: respawn a crashed daemon (nonzero exit or fatal
         signal) with a bounded budget; a clean exit 0 — shutdown or drain
         — ends the loop. The daemon runs this process's own argv, so
         every serve flag (disk-chaos rates included: faults belong in the
         daemon doing the ledger/triage writes, not here) reaches it
         unchanged. The restart count rides down in the environment so
         the child reports it in stats/health. *)
      let exe = Sys.executable_name in
      let restarts = ref 0 in
      let child = ref None in
      (* Forward TERM/INT so killing the supervisor drains the daemon
         instead of orphaning it; the child's clean exit then ends us. *)
      List.iter
        (fun s ->
          Sys.set_signal s
            (Sys.Signal_handle
               (fun _ ->
                 match !child with
                 | Some pid -> ( try Unix.kill pid s with _ -> ())
                 | None -> ())))
        [ Sys.sigterm; Sys.sigint ];
      let env_for n =
        let keep =
          List.filter
            (fun s ->
              not (String.starts_with ~prefix:"COSYNTH_SERVE_RESTARTS=" s))
            (Array.to_list (Unix.environment ()))
        in
        Array.of_list (keep @ [ Printf.sprintf "COSYNTH_SERVE_RESTARTS=%d" n ])
      in
      let rec waitpid pid =
        try snd (Unix.waitpid [] pid)
        with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid pid
      in
      let status_to_string = function
        | Unix.WEXITED n -> Printf.sprintf "exited %d" n
        | Unix.WSIGNALED n -> Printf.sprintf "killed by signal %d" n
        | Unix.WSTOPPED n -> Printf.sprintf "stopped by signal %d" n
      in
      let rec loop () =
        let pid =
          Unix.create_process_env exe Sys.argv (env_for !restarts) Unix.stdin
            Unix.stdout Unix.stderr
        in
        child := Some pid;
        let st = waitpid pid in
        child := None;
        match st with
        | Unix.WEXITED 0 -> 0
        | st when !restarts >= max_restarts ->
            Printf.eprintf
              "cosynth serve: supervisor: daemon %s; restart budget (%d) spent\n%!"
              (status_to_string st) max_restarts;
            1
        | st ->
            incr restarts;
            Printf.eprintf
              "cosynth serve: supervisor: daemon %s; restart %d/%d\n%!"
              (status_to_string st) !restarts max_restarts;
            loop ()
      in
      loop ()
    end
    else begin
      (* In the daemon the Guard is the crash boundary, so a Crashed from
         a crash-after schedule surfaces as a failed request rather than
         a process death; the rate faults (torn/short/fsync-fail on the
         ledger and triage writes) are the useful knobs here. *)
      disk_chaos_arm disk;
      let restarts =
        match restarts_env with
        | Some s -> ( try int_of_string s with _ -> 0)
        | None -> 0
      in
      let cfg =
        {
          Cosynth.Service.domains = jobs;
          round_budget_cap;
          stage_budget_cap;
          admission =
            {
              Resilience.Admission.max_in_flight;
              max_queue;
              max_per_client;
              max_deadline_ms;
              retry_after_ms;
            };
          admission_file;
          io_timeout_ms;
          drain_grace_ms;
          handle_signals = true;
          debug_jobs;
          triage = triage_path;
          restarts;
          trust_ledger = trust_ledger_path;
        }
      in
      let summary =
        Cosynth.Service.serve
          ~on_ready:(fun ~domains ->
            Printf.printf "cosynth serve: listening on %s (pool: %d domain(s))\n%!"
              socket domains)
          ~socket_path:socket cfg
      in
      if summary.Cosynth.Service.drained then
        Printf.printf
          "cosynth serve: %d request(s) served, drained (%d shed, %d timed out)\n%!"
          summary.Cosynth.Service.served summary.Cosynth.Service.shed
          summary.Cosynth.Service.timed_out
      else
        (* The shutdown-path line is pinned: an unloaded single-client
           session must remain byte-identical to the pre-hardening daemon. *)
        Printf.printf "cosynth serve: %d request(s) served, shut down cleanly\n%!"
          summary.Cosynth.Service.served;
      disk_chaos_footer disk;
      0
    end
  in
  let socket =
    Arg.(
      required
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Unix-domain socket to listen on (a stale file is replaced).")
  in
  let jobs =
    Arg.(
      value
      & opt (some int) None
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:"Worker domains for the shared pool (default: \
                COSYNTH_POOL_SIZE or the machine; 0 = sequential).")
  in
  let round_budget =
    Arg.(
      value & opt int 64
      & info [ "round-budget" ] ~docv:"T"
          ~doc:"Cap on the per-round verifier tick budget a request may ask \
                for (the per-client budget).")
  in
  let stage_budget =
    Arg.(
      value & opt int 32
      & info [ "stage-budget" ] ~docv:"T"
          ~doc:"Per-stage tick watchdog for every request.")
  in
  let dflt = Resilience.Admission.default_config in
  let max_in_flight =
    Arg.(
      value & opt int dflt.Resilience.Admission.max_in_flight
      & info [ "max-in-flight" ] ~docv:"N"
          ~doc:"Work jobs running concurrently; beyond it requests queue.")
  in
  let max_queue =
    Arg.(
      value & opt int dflt.Resilience.Admission.max_queue
      & info [ "max-queue" ] ~docv:"N"
          ~doc:"Requests allowed to wait for a slot; one more is shed with \
                a structured retry-after frame instead of queueing forever.")
  in
  let max_per_client =
    Arg.(
      value & opt int dflt.Resilience.Admission.max_per_client
      & info [ "max-per-client" ] ~docv:"N"
          ~doc:"Concurrent work jobs per client identity (the request's \
                $(b,client) field, defaulting to its connection).")
  in
  let max_deadline_ms =
    Arg.(
      value & opt int dflt.Resilience.Admission.max_deadline_ms
      & info [ "max-deadline-ms" ] ~docv:"MS"
          ~doc:"Server cap a request's $(b,deadline_ms) is clamped to; an \
                expired job answers with a structured timeout frame.")
  in
  let retry_after_ms =
    Arg.(
      value & opt int dflt.Resilience.Admission.retry_after_ms
      & info [ "retry-after-ms" ] ~docv:"MS"
          ~doc:"Back-off hint carried in shed frames.")
  in
  let io_timeout_ms =
    Arg.(
      value & opt int 30_000
      & info [ "io-timeout-ms" ] ~docv:"MS"
          ~doc:"Socket read/write timeout: a peer stalling mid-frame drops \
                its own connection instead of pinning a handler thread \
                (0 disables).")
  in
  let drain_grace_ms =
    Arg.(
      value & opt int 1_000
      & info [ "drain-grace-ms" ] ~docv:"MS"
          ~doc:"After a drain begins (a $(b,drain) job or SIGTERM/SIGINT), \
                requests on live connections are rejected with a structured \
                frame for $(docv) before connections close.")
  in
  let admission_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "admission-file" ] ~docv:"FILE"
          ~doc:"Hot reload: on SIGHUP, re-read the admission caps from this \
                JSON file (keys $(b,max_in_flight), $(b,max_queue), \
                $(b,max_per_client), $(b,max_deadline_ms), \
                $(b,retry_after_ms); missing keys keep their current values) \
                and swap them in without a drain. A malformed or unreadable \
                file keeps the caps in force; every reload bumps the \
                $(b,reloads) counter in $(b,health)/$(b,stats).")
  in
  let triage_path =
    Arg.(
      value
      & opt (some string) None
      & info [ "triage" ] ~docv:"FILE"
          ~doc:"Append every Guard crash bucket from this daemon run \
                (deadline expiries included) to $(docv) at drain/shutdown \
                (JSONL; read back with $(b,cosynth triage)).")
  in
  let trust_ledger =
    Arg.(
      value
      & opt (some string) None
      & info [ "trust-ledger" ] ~docv:"FILE"
          ~doc:"Arm the persistent trust layer: load $(docv) at startup (a \
                quarantine recorded before a restart — or by a sweep sharing \
                the file — governs the very first request), run \
                $(b,translate)/$(b,synth)/$(b,repair) under cross-checks, \
                and append one fsync'd line per job. $(b,health) and \
                $(b,stats) gain a $(b,trust) object while set.")
  in
  let debug_jobs =
    Arg.(
      value & flag
      & info [ "debug-jobs" ]
          ~doc:"Enable the $(b,sleep) and $(b,crash) harness jobs (the \
                overload gate's load generator and the supervisor smoke's \
                crash trigger).")
  in
  let supervise =
    Arg.(
      value & flag
      & info [ "supervise" ]
          ~doc:"Run as a supervisor: spawn the daemon as a child process and \
                respawn it after a crash (bounded by $(b,--max-restarts)); \
                restart counts surface in the daemon's $(b,stats)/$(b,health). \
                The daemon re-runs the supervisor's own command line with \
                COSYNTH_SERVE_RESTARTS set; a process started with that \
                variable set runs the daemon and never supervises.")
  in
  let max_restarts =
    Arg.(
      value & opt int 3
      & info [ "max-restarts" ] ~docv:"N"
          ~doc:"Respawn budget under $(b,--supervise).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Persistent synthesis daemon: accept synthesis / translation / \
          repair / parse jobs over a Unix-domain socket (length-prefixed \
          JSON), keeping worker domains, the parse memo and verifier state \
          warm across requests. Hardened for production traffic: bounded \
          admission with load shedding, per-request deadlines, slow-client \
          io timeouts, graceful drain on SIGTERM/SIGINT or the $(b,drain) \
          job, and a $(b,--supervise) mode that respawns a crashed daemon")
    Term.(
      const run $ socket $ jobs $ round_budget $ stage_budget $ max_in_flight
      $ max_queue $ max_per_client $ max_deadline_ms $ retry_after_ms
      $ io_timeout_ms $ drain_grace_ms $ admission_file $ triage_path
      $ trust_ledger $ debug_jobs $ supervise $ max_restarts $ disk_chaos_term)

let client_cmd =
  let known_jobs =
    [
      "ping"; "stats"; "health"; "parse"; "translate"; "synth"; "repair";
      "sleep"; "crash"; "drain"; "shutdown";
    ]
  in
  let run socket job seed routers count budget dialect file deadline_ms client_id
      sleep_ms retry_overloaded connect_budget_ms =
    let module J = Netcore.Json in
    if not (List.mem job known_jobs) then begin
      Printf.eprintf "error: unknown job %S (%s)\n%!" job
        (String.concat "|" known_jobs);
      exit 2
    end;
    let text = Option.map read_file file in
    let opt_budget =
      match budget with Some b -> [ ("budget", J.Int b) ] | None -> []
    in
    let opt_common =
      (match deadline_ms with
      | Some d -> [ ("deadline_ms", J.Int d) ]
      | None -> [])
      @
      match client_id with
      | Some c -> [ ("client", J.String c) ]
      | None -> []
    in
    let reqs =
      match job with
      | "translate" ->
          List.init count (fun i ->
              J.Obj
                ([ ("job", J.String job); ("seed", J.Int (seed + i)) ]
                @ opt_budget @ opt_common
                @ match text with Some t -> [ ("text", J.String t) ] | None -> []))
      | "synth" | "repair" ->
          List.init count (fun i ->
              J.Obj
                ([
                   ("job", J.String job);
                   ("seed", J.Int (seed + i));
                   ("routers", J.Int routers);
                 ]
                @ opt_budget @ opt_common))
      | "parse" ->
          let t = match text with Some t -> t | None -> Cisco.Samples.border_router in
          List.init count (fun _ ->
              J.Obj
                ([
                   ("job", J.String job);
                   ("dialect", J.String dialect);
                   ("text", J.String t);
                 ]
                @ opt_common))
      | "sleep" ->
          List.init count (fun _ ->
              J.Obj
                ([ ("job", J.String job); ("ms", J.Int sleep_ms) ] @ opt_common))
      | _ -> [ J.Obj [ ("job", J.String job) ] ]
    in
    (* A shed frame is flow control, not failure: honor its retry_after_ms
       hint up to --retry-overloaded times, and only then surface the shed
       frame itself (so the exit code and JSON stream still tell the truth
       when the server stays saturated). *)
    let shed_retries = ref 0 in
    let send fd req =
      match
        Exec.Serve.request_retrying ~retries:retry_overloaded
          ~on_retry:(fun () -> incr shed_retries)
          fd req
      with
      | reply -> reply
      | exception Exec.Serve.Server_overloaded { retry_after_ms } ->
          J.Obj
            [
              ("ok", J.Bool false);
              ("error", J.String "overloaded: retries exhausted");
              ("shed", J.Bool true);
              ("retry_after_ms", J.Int retry_after_ms);
            ]
    in
    let t0 = Unix.gettimeofday () in
    let replies =
      Exec.Serve.with_connection ~total_budget_ms:connect_budget_ms
        ~socket_path:socket (fun fd -> List.map (send fd) reqs)
    in
    let dt = Unix.gettimeofday () -. t0 in
    List.iter (fun r -> print_endline (J.to_string r)) replies;
    (* Timing to stderr so stdout stays a clean JSON-lines stream. *)
    Printf.eprintf "client: %d request(s) in %.3fs (%.1f req/s)\n%!"
      (List.length replies) dt
      (float_of_int (List.length replies) /. Float.max dt 1e-9);
    if !shed_retries > 0 then
      Printf.eprintf "client: %d shed retry(ies)\n%!" !shed_retries;
    if
      List.for_all
        (fun r -> Option.bind (J.member "ok" r) J.to_bool = Some true)
        replies
    then 0
    else 1
  in
  let socket =
    Arg.(
      required
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH" ~doc:"The daemon's Unix-domain socket.")
  in
  let job =
    Arg.(
      value
      & pos 0 string "ping"
      & info [] ~docv:"JOB"
          ~doc:
            "ping|stats|health|parse|translate|synth|repair|sleep|crash|drain|\
             shutdown (sleep/crash need a $(b,--debug-jobs) daemon).")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N") in
  let routers = Arg.(value & opt int 5 & info [ "routers" ] ~docv:"N") in
  let count =
    Arg.(
      value & opt int 1
      & info [ "count" ] ~docv:"K"
          ~doc:"Send $(docv) requests on one connection (seeded jobs use \
                consecutive seeds) — the warm-throughput probe.")
  in
  let budget =
    Arg.(
      value
      & opt (some int) None
      & info [ "budget" ] ~docv:"T"
          ~doc:"Per-round verifier tick budget to request (the server caps it).")
  in
  let dialect =
    Arg.(value & opt string "cisco" & info [ "dialect" ] ~docv:"D" ~doc:"For parse jobs.")
  in
  let file =
    Arg.(
      value
      & opt (some Arg.file) None
      & info [ "file" ] ~docv:"CONFIG" ~doc:"Config text for parse/translate jobs.")
  in
  let deadline_ms =
    Arg.(
      value
      & opt (some int) None
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:"Per-request deadline to ask for (the server clamps it to its \
                $(b,--max-deadline-ms); an expired job answers a structured \
                timeout frame).")
  in
  let client_id =
    Arg.(
      value
      & opt (some string) None
      & info [ "client" ] ~docv:"NAME"
          ~doc:"Client identity for the server's per-client admission cap \
                (defaults server-side to the connection).")
  in
  let sleep_ms =
    Arg.(
      value & opt int 100
      & info [ "ms" ] ~docv:"MS" ~doc:"Duration for $(b,sleep) jobs.")
  in
  let retry_overloaded =
    Arg.(
      value & opt int 0
      & info [ "retry-overloaded" ] ~docv:"N"
          ~doc:"Retry a shed request up to $(docv) times, honoring each shed \
                frame's $(b,retry_after_ms) hint between attempts.")
  in
  let connect_budget_ms =
    Arg.(
      value & opt int 1_000
      & info [ "connect-budget-ms" ] ~docv:"MS"
          ~doc:"Total time to keep retrying the initial connection with \
                exponential backoff (covers daemon startup and supervised \
                respawns).")
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Drive a running `cosynth serve` daemon: send one or more jobs over \
          the socket and print each JSON reply (exits nonzero unless every \
          reply is ok)")
    Term.(
      const run $ socket $ job $ seed $ routers $ count $ budget $ dialect
      $ file $ deadline_ms $ client_id $ sleep_ms $ retry_overloaded
      $ connect_budget_ms)

(* ------------------------------------------------------------------ *)
(* fuzz / triage                                                       *)
(* ------------------------------------------------------------------ *)

let fuzz_cmd =
  let run seeds_n mutations seed triage_path promote_dir =
    Resilience.Guard.reset ();
    let seeds = List.init seeds_n (fun i -> seed + i) in
    let escapes = ref 0 in
    let all_escapes = ref [] in
    let report name (r : Fuzz.Props.report) =
      Printf.printf "%s: %d mutated input(s), %d escape(s)\n" name r.Fuzz.Props.inputs
        (List.length r.Fuzz.Props.escapes);
      all_escapes := !all_escapes @ r.Fuzz.Props.escapes;
      List.iter
        (fun e ->
          incr escapes;
          Printf.printf "ESCAPE %s\n" (Fuzz.Props.escape_to_string e))
        r.Fuzz.Props.escapes
    in
    report "cisco" (Fuzz.Props.run Fuzz.Corpus.Cisco ~seeds ~mutations);
    report "junos" (Fuzz.Props.run Fuzz.Corpus.Junos ~seeds ~mutations);
    report "topology" (Fuzz.Props.run_topology ~seeds ~mutations ());
    report "policy" (Fuzz.Props.run_policy ~seeds ~mutations ());
    (match promote_dir with
    | Some dir ->
        let written = Fuzz.Props.promote ~dir !all_escapes in
        List.iter
          (fun (name, (e : Fuzz.Props.escape)) ->
            Printf.printf "promoted: %s (%s in %s, %dB minimized)\n" name
              e.Fuzz.Props.violation.Fuzz.Props.constructor
              e.Fuzz.Props.violation.Fuzz.Props.stage
              (String.length e.Fuzz.Props.minimized))
          written;
        Printf.printf "promote-corpus: %d new bucket(s) written to %s\n"
          (List.length written) dir
    | None -> ());
    record_triage ~seed triage_path;
    if !escapes > 0 then 1 else 0
  in
  let seeds_n = Arg.(value & opt int 4 & info [ "seeds" ] ~docv:"N") in
  let mutations = Arg.(value & opt int 40 & info [ "mutations" ] ~docv:"M") in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Base seed.") in
  let triage_path =
    Arg.(
      value
      & opt (some string) None
      & info [ "triage" ] ~docv:"FILE"
          ~doc:"Append every Guard crash bucket from this campaign to $(docv) \
                (JSONL; read back with $(b,cosynth triage)).")
  in
  let promote_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "promote-corpus" ] ~docv:"DIR"
          ~doc:"Promote each crasher that opens a new (stage x constructor) \
                triage bucket into $(docv) as a minimized \
                $(b,promoted-*.txt) regression seed; the F1 gate replays \
                promoted entries first. Idempotent: buckets already \
                promoted are skipped.")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Mutation-fuzz every pipeline stage (config dialects, topology \
          dictionaries, policy fragments); exits nonzero on any escape past the \
          Guard firewall")
    Term.(const run $ seeds_n $ mutations $ seed $ triage_path $ promote_dir)

let triage_cmd =
  let run file stage ctor =
    (* Substring filters, case-sensitive like grep without -i: an operator
       chasing one failing stage (or one crash constructor) reads a table
       scoped to it instead of the whole campaign's. No filters — no
       change, so existing triage output is untouched. *)
    let contains ~needle hay =
      let nl = String.length needle and hl = String.length hay in
      nl = 0
      || (nl <= hl
         && (let found = ref false in
             for i = 0 to hl - nl do
               if (not !found) && String.sub hay i nl = needle then found := true
             done;
             !found))
    in
    let keep (r : Resilience.Triage.row) =
      (match stage with
      | None -> true
      | Some s -> contains ~needle:s r.Resilience.Triage.stage)
      && (match ctor with
         | None -> true
         | Some c -> contains ~needle:c r.Resilience.Triage.constructor)
    in
    match List.filter keep (Resilience.Triage.load file) with
    | [] ->
        (match (stage, ctor) with
        | None, None -> Printf.printf "no crash buckets recorded in %s\n" file
        | _ ->
            Printf.printf "no crash buckets in %s match the given filters\n" file);
        0
    | rows ->
        (* UTC so the column is stable across operator timezones; "-" for
           rows journaled by seeded (untimestamped) campaigns. *)
        let fmt_ts = function
          | None -> "-"
          | Some t ->
              let tm = Unix.gmtime t in
              Printf.sprintf "%04d-%02d-%02d %02d:%02dZ" (tm.Unix.tm_year + 1900)
                (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour
                tm.Unix.tm_min
        in
        print_string
          (Cosynth.Report.table ~title:("crash buckets in " ^ file)
             ~header:
               [
                 "stage"; "constructor"; "count"; "first seed"; "last seed";
                 "first seen"; "last seen";
               ]
             (List.map
                (fun (r : Resilience.Triage.row) ->
                  [
                    r.Resilience.Triage.stage;
                    r.Resilience.Triage.constructor;
                    string_of_int r.Resilience.Triage.count;
                    string_of_int r.Resilience.Triage.first_seed;
                    string_of_int r.Resilience.Triage.last_seed;
                    fmt_ts r.Resilience.Triage.first_ts;
                    fmt_ts r.Resilience.Triage.last_ts;
                  ])
                rows));
        0
  in
  let stage =
    Arg.(
      value
      & opt (some string) None
      & info [ "stage" ] ~docv:"S"
          ~doc:"Only buckets whose stage label contains $(docv) (substring \
                match, e.g. $(b,campion) or $(b,serve:)).")
  in
  let ctor =
    Arg.(
      value
      & opt (some string) None
      & info [ "ctor" ] ~docv:"C"
          ~doc:"Only buckets whose crash constructor contains $(docv) \
                (substring match, e.g. $(b,Deadline_exceeded)).")
  in
  Cmd.v
    (Cmd.info "triage"
       ~doc:
         "Print the merged stage x constructor crash-bucket table from a \
          $(b,--triage) JSONL journal (counts summed, first/last-seen seeds), \
          optionally scoped with $(b,--stage)/$(b,--ctor) substring filters")
    Term.(
      const run
      $ Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE")
      $ stage $ ctor)

(* ------------------------------------------------------------------ *)
(* fsck                                                                *)
(* ------------------------------------------------------------------ *)

let fsck_cmd =
  let run file lww compact =
    let records, stats = Durable.Store.read file in
    Printf.printf "%s: lines=%d ok=%d corrupt=%d legacy=%d\n" file
      stats.Durable.Store.lines stats.Durable.Store.ok
      stats.Durable.Store.corrupt stats.Durable.Store.legacy;
    (if lww then begin
       (* Checkpoint-journal semantics: one surviving record per seed.
          Records without the {"seed", "summary"} envelope (e.g. triage
          rows) are dropped — use plain --compact for those files. *)
       let dropped, kept = Exec.Checkpoint.compact file in
       Printf.printf "compacted (last-write-wins): %d dropped, %d kept\n"
         dropped kept
     end
     else if compact then
       if Durable.Store.rewrite file records then
         Printf.printf "compacted: %d record(s) kept, corruption dropped\n"
           (List.length records)
       else Printf.printf "compaction failed; file untouched\n");
    (* Nonzero exactly when corruption was observed, so scripts can gate
       on a clean store — compaction repairs the file but the exit code
       still reports what was found. *)
    if stats.Durable.Store.corrupt = 0 then 0 else 1
  in
  let lww =
    Arg.(
      value & flag
      & info [ "lww" ]
          ~doc:
            "Compact with checkpoint-journal semantics: keep the last \
             record per seed (what replay would use), dropping superseded \
             duplicates, corruption, and records without a seed envelope.")
  in
  let compact =
    Arg.(
      value & flag
      & info [ "compact" ]
          ~doc:
            "Atomically rewrite the file keeping every decodable record \
             (order preserved, legacy lines re-framed), dropping torn and \
             corrupt lines. Ignored when $(b,--lww) is given.")
  in
  Cmd.v
    (Cmd.info "fsck"
       ~doc:
         "Check a durable store file (journal, trust ledger, triage): count \
          CRC-verified, corrupt and legacy lines, optionally compact — exits \
          nonzero when corruption was found")
    Term.(
      const run
      $ Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE")
      $ lww $ compact)

let () =
  let doc =
    "CoSynth: verified prompt programming for router configurations (HotNets 2023 \
     reproduction)"
  in
  let info = Cmd.info "cosynth" ~version:"1.0.0" ~doc in
  exit (Cmd.eval' (Cmd.group info
         [
           topology_cmd; parse_cmd; diff_cmd; verify_cmd; translate_cmd; synth_cmd;
           sim_cmd; prove_cmd; leverage_cmd; chaos_cmd; adversary_cmd; serve_cmd;
           client_cmd; fuzz_cmd; triage_cmd; fsck_cmd;
         ]))
