(* The benchmark harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md's experiment index), then measures the
   performance of the core components with Bechamel.

   Experiment ids:
   - T1  Table 1: sample rectification prompts for translation
   - T2  Table 2: translation errors and whether the generated prompt fixed them
   - L1  Section 3.2: translation leverage (paper: 2 human, ~20 automated, 10x)
   - F4  Figure 4: the star topology generator outputs
   - T3  Table 3: sample rectification prompts for local synthesis
   - L2  Section 4.2: no-transit leverage (paper: 2 human, 12 automated, 6x)
   - G1  Section 4.1: global vs local policy prompting
   - AB1 Ablations: IIPs on/off, leverage vs network size, stall threshold
   - E1-E3 Extensions: modular proof, incremental addition, model quality
     (renamed from S2-S4 when service mode claimed the S prefix)
   - S1  Service mode: warm `cosynth serve` daemon vs cold per-job startup
   - S2  Service hardening: admission, deadlines and drain under overload *)

open Netcore
open Policy

let cisco_text = Cisco.Samples.border_router
let border_ir = fst (Cisco.Parser.parse cisco_text)
let correct_junos = Juniper.Translate.of_cisco_ir border_ir

(* The command line, parsed once into its flags and the --journal DIR
   operand; the gate table at the bottom of this file lists every flag and
   [main] refuses anything else.
   --smoke: 1 seed per experiment and no Bechamel pass — a fast end-to-end
   exercise of the sweep plumbing for the `check` alias / CI; each gate
   shrinks its budget under it.
   --journal DIR: checkpoint every seeded sweep (L1/L2/C1) to one journal
   file per sweep under DIR; --resume replays the recorded seeds instead of
   re-running them. Journal notices go to stderr so a resumed run's stdout
   stays comparable to an uninterrupted one. *)
let flags, journal_dir =
  let rec parse = function
    | "--journal" :: dir :: rest when not (String.starts_with ~prefix:"--" dir) ->
        (fst (parse rest), Some dir)
    | a :: rest ->
        let flags, dir = parse rest in
        (a :: flags, dir)
    | [] -> ([], None)
  in
  parse (List.tl (Array.to_list Sys.argv))

let smoke = List.mem "--smoke" flags
let resume = List.mem "--resume" flags

(* C1 and C2 run at full seed count under the --chaos gate, --smoke or
   not. *)
let chaos_only = List.mem "--chaos" flags
let runs n = if smoke then 1 else n

(* One journal per sweep, named for the table cell that owns it. *)
let journal_name name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' -> c
      | _ -> '-')
    name

let open_journal dir name ~encode ~decode =
  let safe = journal_name name in
  let j =
    Exec.Sweep.journal ~resume
      ~path:(Filename.concat dir (safe ^ ".jsonl"))
      ~encode ~decode ()
  in
  (match Exec.Sweep.journaled_seeds j with
  | [] -> ()
  | done_ ->
      Printf.eprintf "journal: %s: resuming %d completed seed(s)\n%!" safe
        (List.length done_));
  j

let transcript_journal dir name =
  open_journal dir name ~encode:Cosynth.Driver.transcript_to_json
    ~decode:(fun json ->
      try Some (Cosynth.Driver.transcript_of_json json) with _ -> None)

(* One worker pool for the whole harness; size comes from COSYNTH_POOL_SIZE
   or the machine (Exec.Pool.default_size). *)
let pool = Exec.Pool.create ()

let section title =
  Printf.printf "\n%s\n%s\n\n" title (String.make (String.length title) '=')

let print_perf label (p : Cosynth.Metrics.perf) =
  Printf.printf "  %-11s %s\n" label
    (Format.asprintf "%a" Cosynth.Metrics.pp_perf p)

type sweep_report =
  | Two_pass of {
      identical : bool;
      seq_perf : Cosynth.Metrics.perf;
      par_perf : Cosynth.Metrics.perf;
    }
  | Journaled of { replayed : int; fresh : int; perf : Cosynth.Metrics.perf }

(* Run a seeded sweep twice — sequentially and on the pool — check the
   transcripts are byte-identical (determinism is the acceptance bar), and
   report both timings. The memo cache is cleared before each pass so the
   hit rates and wall clocks are comparable.

   Under --journal the sweep instead runs once, pooled, checkpointing each
   completed seed to its own journal file (and replaying recorded seeds
   under --resume); the cross-pass determinism check is the unjournaled
   bench's job. *)
let determinism_sweep ~name ~seeds run =
  match journal_dir with
  | Some dir ->
      Exec.Memo.reset ();
      let j = transcript_journal dir name in
      let replayed = List.length (Exec.Sweep.journaled_seeds j) in
      let ts, perf =
        Cosynth.Metrics.measure ~pool (fun () ->
            Exec.Sweep.run_seeds ~pool ~journal:j ~seeds (fun seed ->
                run ?pool:(Some pool) seed))
      in
      Exec.Sweep.journal_close j;
      (ts, Journaled { replayed; fresh = List.length seeds - replayed; perf })
  | None ->
      Exec.Memo.reset ();
      let seq, seq_perf =
        Cosynth.Metrics.measure (fun () ->
            Exec.Sweep.run_seeds ~seeds (fun seed -> run ?pool:None seed))
      in
      Exec.Memo.reset ();
      let par, par_perf =
        Cosynth.Metrics.measure ~pool (fun () ->
            Exec.Sweep.run_seeds ~pool ~seeds (fun seed -> run ?pool:(Some pool) seed))
      in
      let md (t : Cosynth.Driver.transcript) =
        Cosynth.Driver.transcript_to_markdown ~title:"run" t
      in
      let identical =
        List.for_all2
          (fun a b ->
            md a = md b && Cosynth.Driver.leverage a = Cosynth.Driver.leverage b)
          seq par
      in
      (par, Two_pass { identical; seq_perf; par_perf })

let print_determinism = function
  | Two_pass { identical; seq_perf; par_perf } ->
      Printf.printf "\n  parallel transcripts byte-identical to sequential: %b\n"
        identical;
      print_perf "sequential:" seq_perf;
      print_perf "parallel:" par_perf;
      if par_perf.Cosynth.Metrics.wall_s > 0. then
        Printf.printf "  %-11s %.2fx\n" "speedup:"
          (seq_perf.Cosynth.Metrics.wall_s /. par_perf.Cosynth.Metrics.wall_s)
  | Journaled { replayed; fresh; perf } ->
      Printf.printf "\n  journaled sweep: %d seed(s) replayed, %d run fresh\n"
        replayed fresh;
      print_perf "wall:" perf

(* ------------------------------------------------------------------ *)
(* T1: Table 1 — rectification prompts for translation                 *)
(* ------------------------------------------------------------------ *)

let prompt_for_fault cls target =
  let fault = Llmsim.Fault.make cls target in
  let text = Llmsim.Fault.render Llmsim.Fault.Junos_cfg correct_junos [ fault ] in
  let ir, diags = Batfish.Parse_check.check Batfish.Parse_check.Junos text in
  match List.find_opt Diag.is_error diags with
  | Some d -> (Cosynth.Humanizer.of_diag d).Cosynth.Humanizer.text
  | None -> (
      match Campion.Differ.compare ~original:border_ir ~translation:ir with
      | f :: _ -> (Cosynth.Humanizer.of_campion f).Cosynth.Humanizer.text
      | [] -> "(no finding)")

let table_t1 () =
  section "T1 — Table 1: sample rectification prompts for translation";
  let rows =
    [
      ( "Syntax error",
        prompt_for_fault Llmsim.Error_class.Bad_prefix_list_syntax
          (Llmsim.Fault.Named_list "our-networks") );
      ( "Structural mismatch",
        prompt_for_fault Llmsim.Error_class.Missing_import_policy
          (Llmsim.Fault.Neighbor (Ipv4.of_string_exn "2.3.4.5")) );
      ( "Attribute difference",
        prompt_for_fault Llmsim.Error_class.Ospf_cost_wrong
          (Llmsim.Fault.Interface (Iface.loopback 0)) );
      ( "Policy behavior difference",
        prompt_for_fault Llmsim.Error_class.Prefix_range_dropped
          (Llmsim.Fault.Named_list "our-networks") );
    ]
  in
  List.iter (fun (kind, text) -> Printf.printf "[%s]\n  %s\n\n" kind text) rows

(* ------------------------------------------------------------------ *)
(* T2: Table 2 — translation errors found and whether fixed            *)
(* ------------------------------------------------------------------ *)

let table_t2 () =
  section "T2 — Table 2: translation errors and whether the generated prompt fixed them";
  let faults = Cosynth.Driver.table2_faults ~cisco_text in
  let result =
    Cosynth.Driver.run_translation ~seed:7 ~force_faults:faults ~suppress_random:true
      ~cisco_text ()
  in
  let category cls =
    Llmsim.Error_class.category_to_string
      (Llmsim.Error_class.profile cls).Llmsim.Error_class.category
  in
  let fixed cls =
    List.exists
      (fun (o : Cosynth.Driver.class_outcome) ->
        Llmsim.Error_class.equal o.Cosynth.Driver.class_ cls
        && o.Cosynth.Driver.fixed_by_generated_prompt)
      result.Cosynth.Driver.outcomes
  in
  let row cls paper =
    match Llmsim.Error_class.table2_label cls with
    | Some label -> [ label; category cls; (if fixed cls then "Yes" else "No"); paper ]
    | None -> []
  in
  let rows =
    List.filter
      (fun r -> r <> [])
      [
        row Llmsim.Error_class.Missing_local_as "Yes";
        row Llmsim.Error_class.Bad_prefix_list_syntax "Yes";
        row Llmsim.Error_class.Missing_import_policy "Yes";
        row Llmsim.Error_class.Ospf_cost_wrong "Yes";
        row Llmsim.Error_class.Ospf_passive_wrong "Yes";
        row Llmsim.Error_class.Wrong_med "Yes";
        row Llmsim.Error_class.Prefix_range_dropped "No";
        row Llmsim.Error_class.Redistribution_unscoped "No";
      ]
  in
  print_string
    (Cosynth.Report.table ~title:"(measured vs paper)"
       ~header:[ "Error"; "Type"; "Fixed (ours)"; "Fixed (paper)" ]
       rows);
  Printf.printf "\nRun ended verified=%b (Batfish and Campion clean).\n"
    result.Cosynth.Driver.verified

(* ------------------------------------------------------------------ *)
(* L1 / L2: leverage                                                   *)
(* ------------------------------------------------------------------ *)

let table_l1 () =
  section "L1 — Translation leverage (paper: ~20 automated, 2 human, 10x)";
  let n = runs 30 in
  let transcripts, report =
    determinism_sweep ~name:"l1-translation"
      ~seeds:(Exec.Sweep.seeds ~base:1000 ~n)
      (fun ?pool:_ seed ->
        (Cosynth.Driver.run_translation ~seed ~cisco_text ()).Cosynth.Driver.transcript)
  in
  let s = Cosynth.Metrics.summarize transcripts in
  print_string
    (Cosynth.Report.kv
       ~title:(Printf.sprintf "%d seeded runs of the translation VPP loop" n)
       [
         ("converged", Printf.sprintf "%d/%d" s.Cosynth.Metrics.converged s.Cosynth.Metrics.runs);
         ("mean automated prompts", Printf.sprintf "%.1f (paper: ~20)" s.Cosynth.Metrics.mean_auto);
         ("mean human prompts", Printf.sprintf "%.1f (paper: 2)" s.Cosynth.Metrics.mean_human);
         ( "leverage",
           Printf.sprintf "%.1fx mean, %.1f-%.1f range (paper: 10x)"
             s.Cosynth.Metrics.mean_leverage s.Cosynth.Metrics.min_leverage
             s.Cosynth.Metrics.max_leverage );
       ]);
  print_determinism report

let table_l2 () =
  section "L2 — No-transit leverage (paper: 12 automated, 2 human, 6x)";
  let n = runs 30 in
  let transcripts, report =
    (* The pool is threaded into each run too: the per-router synthesis
       tasks fan out across the same workers as the seeds (nested maps are
       safe — the waiting caller helps drain the queue). *)
    determinism_sweep ~name:"l2-no-transit"
      ~seeds:(Exec.Sweep.seeds ~base:2000 ~n)
      (fun ?pool seed ->
        (Cosynth.Driver.run_no_transit ~seed ?pool ~routers:7 ())
          .Cosynth.Driver.transcript)
  in
  let s = Cosynth.Metrics.summarize transcripts in
  print_string
    (Cosynth.Report.kv
       ~title:(Printf.sprintf "%d seeded runs of the 7-router no-transit VPP loop" n)
       [
         ("converged", Printf.sprintf "%d/%d" s.Cosynth.Metrics.converged s.Cosynth.Metrics.runs);
         ("mean automated prompts", Printf.sprintf "%.1f (paper: 12)" s.Cosynth.Metrics.mean_auto);
         ("mean human prompts", Printf.sprintf "%.1f (paper: 2)" s.Cosynth.Metrics.mean_human);
         ( "leverage",
           Printf.sprintf "%.1fx mean, %.1f-%.1f range (paper: 6x)"
             s.Cosynth.Metrics.mean_leverage s.Cosynth.Metrics.min_leverage
             s.Cosynth.Metrics.max_leverage );
       ]);
  print_determinism report

(* ------------------------------------------------------------------ *)
(* F4: Figure 4 — star topology                                        *)
(* ------------------------------------------------------------------ *)

let figure_f4 () =
  section "F4 — Figure 4: star network generator (7 routers)";
  let star = Star.make ~routers:7 in
  Printf.printf "Output 1 — textual description (first lines):\n";
  let lines = String.split_on_char '\n' (Star.description star) in
  List.iteri (fun i l -> if i < 10 && l <> "" then Printf.printf "  %s\n" l) lines;
  Printf.printf "  ... (%d lines total)\n\n" (List.length lines);
  let json = Json.to_string (Star.to_json star) in
  Printf.printf "Output 2 — JSON dictionary: %d bytes, %d routers, %d links\n"
    (String.length json)
    (List.length star.Star.topology.Topology.routers)
    (List.length star.Star.topology.Topology.links)

(* ------------------------------------------------------------------ *)
(* T3: Table 3 — rectification prompts for local synthesis             *)
(* ------------------------------------------------------------------ *)

let table_t3 () =
  section "T3 — Table 3: sample rectification prompts for local synthesis";
  let star = Star.make ~routers:7 in
  let hub = List.hd (Cosynth.Modularizer.plan star) in
  let correct = hub.Cosynth.Modularizer.correct in
  (* Syntax: a regex in a standard community list. *)
  let syntax_text =
    let _, diags =
      Batfish.Parse_check.check Batfish.Parse_check.Cisco_ios
        "ip community-list standard COMM_LIST_R2_OUT permit .+\n"
    in
    match List.find_opt Diag.is_error diags with
    | Some d -> (Cosynth.Humanizer.of_diag d).Cosynth.Humanizer.text
    | None -> "(no finding)"
  in
  Printf.printf "[Syntax error]\n  %s\n\n" syntax_text;
  (* Topology: apply each topology fault class and show the verifier line. *)
  Printf.printf "[Topology errors]\n";
  let topo_classes =
    [
      Llmsim.Error_class.Wrong_interface_ip;
      Llmsim.Error_class.Wrong_local_as;
      Llmsim.Error_class.Wrong_router_id;
      Llmsim.Error_class.Missing_neighbor_decl;
      Llmsim.Error_class.Missing_network_decl;
      Llmsim.Error_class.Extra_network_decl;
      Llmsim.Error_class.Extra_neighbor_decl;
    ]
  in
  List.iteri
    (fun i cls ->
      let target =
        List.find_opt
          (fun (f : Llmsim.Fault.t) -> Llmsim.Error_class.equal f.Llmsim.Fault.class_ cls)
          (Llmsim.Fault.opportunities Llmsim.Fault.Cisco_cfg correct)
      in
      match target with
      | None -> ()
      | Some fault ->
          let text = Llmsim.Fault.render Llmsim.Fault.Cisco_cfg correct [ fault ] in
          let ir, _ = Cisco.Parser.parse text in
          (match Topoverify.Verifier.check star.Star.topology ~router:"R1" ir with
          | f :: _ ->
              Printf.printf "  %d. %s\n" (i + 1)
                (Cosynth.Humanizer.of_topology f).Cosynth.Humanizer.text
          | [] -> ()))
    topo_classes;
  (* Semantic: the AND/OR confusion caught by Search Route Policies. *)
  let map = Cosynth.Modularizer.egress_map_name "R2" in
  let text =
    Llmsim.Fault.render Llmsim.Fault.Cisco_cfg correct
      [ Llmsim.Fault.make Llmsim.Error_class.And_or_confusion (Llmsim.Fault.Policy map) ]
  in
  let ir, _ = Cisco.Parser.parse text in
  let semantic =
    List.find_map
      (fun (_, outcome) ->
        match outcome with
        | Batfish.Search_route_policies.Violated v ->
            Some (Cosynth.Humanizer.of_violation v).Cosynth.Humanizer.text
        | _ -> None)
      (Batfish.Search_route_policies.check_all ir hub.Cosynth.Modularizer.specs)
  in
  Printf.printf "\n[Semantic error]\n  %s\n" (Option.value ~default:"(no finding)" semantic)

(* ------------------------------------------------------------------ *)
(* G1: global vs local policy prompting                                *)
(* ------------------------------------------------------------------ *)

let table_g1 () =
  section "G1 — Global vs local policy prompting (Section 4.1)";
  let n = runs 20 in
  let c = Cosynth.Global_vs_local.compare ~runs:n ~routers:7 () in
  print_string
    (Cosynth.Report.table ~title:(Printf.sprintf "%d runs each, 7-router star" n)
       ~header:[ "strategy"; "convergence"; "mean prompts"; "mean strategy switches" ]
       [
         [
           "global spec";
           Printf.sprintf "%.0f%%" (100. *. c.Cosynth.Global_vs_local.global_convergence_rate);
           Printf.sprintf "%.1f" c.Cosynth.Global_vs_local.global_mean_prompts;
           Printf.sprintf "%.1f" c.Cosynth.Global_vs_local.global_mean_switches;
         ];
         [
           "local specs (Lightyear-style)";
           Printf.sprintf "%.0f%%" (100. *. c.Cosynth.Global_vs_local.local_convergence_rate);
           Printf.sprintf "%.1f" c.Cosynth.Global_vs_local.local_mean_prompts;
           "0.0";
         ];
       ])

(* ------------------------------------------------------------------ *)
(* AB1: ablations                                                      *)
(* ------------------------------------------------------------------ *)

let table_ab1a () =
  section
    (Printf.sprintf "AB1a — Ablation: IIP database on/off (7-router no-transit, %d runs)"
       (runs 15));
  let with_iips =
    Cosynth.Metrics.no_transit_summary ~runs:(runs 15) ~routers:7 ~use_iips:true ~pool ()
  in
  let without =
    Cosynth.Metrics.no_transit_summary ~runs:(runs 15) ~routers:7 ~use_iips:false ~pool ()
  in
  let row label (s : Cosynth.Metrics.summary) =
    [
      label;
      Printf.sprintf "%.1f" s.Cosynth.Metrics.mean_auto;
      Printf.sprintf "%.1f" s.Cosynth.Metrics.mean_human;
      Printf.sprintf "%.1fx" s.Cosynth.Metrics.mean_leverage;
      Printf.sprintf "%d/%d" s.Cosynth.Metrics.converged s.Cosynth.Metrics.runs;
    ]
  in
  print_string
    (Cosynth.Report.table ~title:"The IIPs suppress the common syntax mistakes"
       ~header:[ "configuration"; "auto"; "human"; "leverage"; "converged" ]
       [ row "with IIPs (paper setup)" with_iips; row "without IIPs" without ])

let table_ab1b () =
  section
    (Printf.sprintf "AB1b — Ablation: leverage vs star size (%d runs per size)" (runs 10));
  let rows =
    List.map
      (fun routers ->
        let s = Cosynth.Metrics.no_transit_summary ~runs:(runs 10) ~routers ~pool () in
        [
          string_of_int routers;
          Printf.sprintf "%.1f" s.Cosynth.Metrics.mean_auto;
          Printf.sprintf "%.1f" s.Cosynth.Metrics.mean_human;
          Printf.sprintf "%.1fx" s.Cosynth.Metrics.mean_leverage;
        ])
      [ 3; 5; 7; 9; 11 ]
  in
  print_string
    (Cosynth.Report.table ~title:"More routers, more modularizer prompts, higher leverage"
       ~header:[ "routers"; "auto"; "human"; "leverage" ]
       rows)

let table_ab1c () =
  section
    (Printf.sprintf "AB1c — Ablation: translation leverage vs stall threshold (%d runs each)"
       (runs 10));
  let rows =
    List.map
      (fun st ->
        let transcripts =
          Exec.Sweep.run_seeds ~pool
            ~seeds:(Exec.Sweep.seeds ~base:4000 ~n:(runs 10))
            (fun seed ->
              (Cosynth.Driver.run_translation ~seed ~stall_threshold:st ~cisco_text ())
                .Cosynth.Driver.transcript)
        in
        let s = Cosynth.Metrics.summarize transcripts in
        [
          string_of_int st;
          Printf.sprintf "%.1f" s.Cosynth.Metrics.mean_auto;
          Printf.sprintf "%.1f" s.Cosynth.Metrics.mean_human;
          Printf.sprintf "%.1fx" s.Cosynth.Metrics.mean_leverage;
        ])
      [ 1; 2; 3; 4; 6 ]
  in
  print_string
    (Cosynth.Report.table
       ~title:
         "How many automated attempts before escalating to the human (the V->H punt \
          policy)"
       ~header:[ "stall threshold"; "auto"; "human"; "leverage" ]
       rows)

(* ------------------------------------------------------------------ *)
(* E1: simulation vs modular proof as the global check                 *)
(* ------------------------------------------------------------------ *)

let table_e1 () =
  section "E1 — Extension: whole-network simulation vs Lightyear-style modular proof";
  let star = Star.make ~routers:7 in
  let configs =
    List.map
      (fun (t : Cosynth.Modularizer.router_task) ->
        (t.Cosynth.Modularizer.router, t.Cosynth.Modularizer.correct))
      (Cosynth.Modularizer.plan star)
  in
  let hub = List.assoc "R1" configs in
  let verdicts name fault_opt =
    let cfgs =
      match fault_opt with
      | None -> configs
      | Some fault ->
          let text = Llmsim.Fault.render Llmsim.Fault.Cisco_cfg hub [ fault ] in
          let broken, _ = Cisco.Parser.parse text in
          ("R1", broken) :: List.remove_assoc "R1" configs
    in
    let transit = Cosynth.Modularizer.transit_violations star cfgs = [] in
    let proof =
      match Cosynth.Lightyear.prove_no_transit star cfgs with
      | Cosynth.Lightyear.Proved -> "Proved"
      | Cosynth.Lightyear.Refuted r ->
          Printf.sprintf "Refuted (%s->%s)" r.Cosynth.Lightyear.from_spoke
            r.Cosynth.Lightyear.to_spoke
      | Cosynth.Lightyear.Inapplicable _ -> "Inapplicable"
    in
    [ name; (if transit then "no transit" else "TRANSIT"); proof ]
  in
  print_string
    (Cosynth.Report.table
       ~title:
         "The proof composes the hub's ingress and egress policies symbolically (no \
          simulation); it must agree with the simulated transit check"
       ~header:[ "hub configuration"; "simulation"; "modular proof" ]
       [
         verdicts "correct (oracle)" None;
         verdicts "AND/OR confusion on FILTER_COMM_OUT_R2"
           (Some
              (Llmsim.Fault.make Llmsim.Error_class.And_or_confusion
                 (Llmsim.Fault.Policy (Cosynth.Modularizer.egress_map_name "R2"))));
         verdicts "crossed ingress attachments"
           (Some
              (Llmsim.Fault.make Llmsim.Error_class.Crossed_policy_attachment
                 Llmsim.Fault.Whole_config));
         verdicts "non-additive community on TAG_R2"
           (Some
              (Llmsim.Fault.make Llmsim.Error_class.Community_not_additive
                 (Llmsim.Fault.Policy_entry (Cosynth.Modularizer.ingress_map_name "R2", 10))));
       ])

(* ------------------------------------------------------------------ *)
(* E2: incremental policy addition                                     *)
(* ------------------------------------------------------------------ *)

let table_e2 () =
  section
    "E2 — Extension: incremental policy addition (the paper's closing question)";
  let runs = runs 25 in
  let results =
    Exec.Sweep.run_seeds ~pool
      ~seeds:(List.init runs (fun i -> i * 31))
      (fun seed -> Cosynth.Driver.run_incremental ~seed ~routers:7 ())
  in
  let count f = List.length (List.filter f results) in
  let mean f =
    List.fold_left (fun acc r -> acc +. f r) 0. results /. float_of_int runs
  in
  print_string
    (Cosynth.Report.kv
       ~title:
         (Printf.sprintf
            "Prepend the AS path on exports to R2 without breaking the verified \
             no-transit policy (%d seeded runs)"
            runs)
       [
         ("converged, all specs hold", Printf.sprintf "%d/%d" (count (fun r -> r.Cosynth.Driver.specs_hold)) runs);
         ("no-transit preserved network-wide", Printf.sprintf "%d/%d" (count (fun r -> r.Cosynth.Driver.global_ok)) runs);
         ( "runs where the edit interfered and the verifier caught it",
           Printf.sprintf "%d/%d" (count (fun r -> r.Cosynth.Driver.interference_caught)) runs );
         ( "mean prompts (auto / human)",
           Printf.sprintf "%.1f / %.1f"
             (mean (fun r -> float_of_int r.Cosynth.Driver.inc_transcript.Cosynth.Driver.auto_prompts))
             (mean (fun r -> float_of_int r.Cosynth.Driver.inc_transcript.Cosynth.Driver.human_prompts)) );
       ])

(* ------------------------------------------------------------------ *)
(* E3: leverage vs model quality                                       *)
(* ------------------------------------------------------------------ *)

let table_e3 () =
  section "E3 — Extension: leverage vs simulated model quality";
  Printf.printf
    "The paper predicts: \"If a future LLM, say GPT-6, produces near-perfect\n\
     configurations, leverage will decrease as there is less need for automatic\n\
     correction.\" Quality q scales fault injection by (1-q) and correction\n\
     reliability toward 1.\n\n";
  let rows =
    List.map
      (fun q ->
        let transcripts =
          Exec.Sweep.run_seeds ~pool
            ~seeds:(Exec.Sweep.seeds ~base:6000 ~n:(runs 15))
            (fun seed ->
              (Cosynth.Driver.run_translation ~seed ~quality:q ~cisco_text ())
                .Cosynth.Driver.transcript)
        in
        let s = Cosynth.Metrics.summarize transcripts in
        [
          Printf.sprintf "%.2f" q;
          Printf.sprintf "%.1f" s.Cosynth.Metrics.mean_auto;
          Printf.sprintf "%.1f" s.Cosynth.Metrics.mean_human;
          Printf.sprintf "%.1fx" s.Cosynth.Metrics.mean_leverage;
          Printf.sprintf "%d/%d" s.Cosynth.Metrics.converged s.Cosynth.Metrics.runs;
        ])
      [ 0.0; 0.25; 0.5; 0.75; 0.95 ]
  in
  print_string
    (Cosynth.Report.table
       ~title:(Printf.sprintf "Translation loop, %d runs per quality level" (runs 15))
       ~header:[ "model quality"; "auto"; "human"; "leverage"; "converged" ]
       rows)

(* ------------------------------------------------------------------ *)
(* C1: chaos sweep — the VPP loops under injected verifier faults      *)
(* ------------------------------------------------------------------ *)

(* Every schedule shares one chaos seed; the driver mixes the run seed in
   as the salt, so a seed sweep explores distinct fault timelines under
   each configuration. The all-zero schedule pins the pay-for-what-you-use
   contract: arming it is a no-op. *)
let chaos_schedules =
  [
    ("no faults", Resilience.Chaos.make ~seed:99 ());
    ("crash 0.15", Resilience.Chaos.make ~crash_rate:0.15 ~seed:99 ());
    ( "timeout 0.20 + flake 0.10",
      Resilience.Chaos.make ~timeout_rate:0.2 ~flake_rate:0.1 ~seed:99 () );
    ( "all faults 0.08",
      Resilience.Chaos.make ~crash_rate:0.08 ~timeout_rate:0.08
        ~flake_rate:0.08 ~truncate_rate:0.08 ~seed:99 () );
  ]

let table_c1 () =
  section "C1 — Chaos sweep: the VPP loops under injected verifier faults";
  let n = if chaos_only then 20 else if smoke then 5 else 20 in
  let seeds = Exec.Sweep.seeds ~base:8000 ~n in
  let trans_budget = 200 and synth_budget = 400 in
  let violations = ref [] in
  let violation fmt =
    Printf.ksprintf (fun s -> violations := s :: !violations) fmt
  in
  (* The two invariants under ANY fault schedule: the loop never raises,
     and the merged transcript never exceeds its prompt budget. *)
  let guarded label budget f =
    match f () with
    | (t : Cosynth.Driver.transcript) ->
        let spent = t.Cosynth.Driver.auto_prompts + t.Cosynth.Driver.human_prompts in
        if spent > budget then
          violation "%s spent %d prompts (budget %d)" label spent budget;
        Some t
    | exception e -> violation "%s raised %s" label (Printexc.to_string e); None
  in
  let degraded_events =
    List.fold_left (fun acc t -> acc + Cosynth.Driver.degraded_rounds t) 0
  in
  (* Journal-aware [List.filter_map f seeds]: under --journal each C1 cell
     checkpoints its per-seed outcome to its own file ([Null] = the
     budget/raise gate dropped the run) and --resume replays it. *)
  let c1_sweep name f =
    match journal_dir with
    | None -> List.filter_map f seeds
    | Some dir ->
        let j =
          open_journal dir ("c1-" ^ name)
            ~encode:(function
              | Some t -> Cosynth.Driver.transcript_to_json t
              | None -> Netcore.Json.Null)
            ~decode:(function
              | Netcore.Json.Null -> Some None
              | json -> (
                  try Some (Some (Cosynth.Driver.transcript_of_json json))
                  with _ -> None))
        in
        let out = Exec.Sweep.run_seeds ~journal:j ~seeds f in
        Exec.Sweep.journal_close j;
        List.filter_map Fun.id out
  in
  Exec.Memo.reset ();
  let (rows, crash_rows, identical), perf =
    Cosynth.Metrics.measure (fun () ->
        let rows =
          List.map
            (fun (name, chaos) ->
              let resilience = Resilience.Runtime.config ~chaos () in
              let ts =
                c1_sweep
                  (Printf.sprintf "translation-%s" name)
                  (fun seed ->
                    guarded
                      (Printf.sprintf "translation[%s seed %d]" name seed)
                      trans_budget
                      (fun () ->
                        (Cosynth.Driver.run_translation ~seed ~resilience
                           ~cisco_text ())
                          .Cosynth.Driver.transcript))
              in
              let ss =
                c1_sweep
                  (Printf.sprintf "no-transit-%s" name)
                  (fun seed ->
                    guarded
                      (Printf.sprintf "no-transit[%s seed %d]" name seed)
                      synth_budget
                      (fun () ->
                        (Cosynth.Driver.run_no_transit ~seed ~resilience
                           ~routers:7 ())
                          .Cosynth.Driver.transcript))
              in
              let st = Cosynth.Metrics.summarize ts in
              let sn = Cosynth.Metrics.summarize ss in
              [
                name;
                Printf.sprintf "%d/%d" (st.Cosynth.Metrics.converged + sn.Cosynth.Metrics.converged)
                  (st.Cosynth.Metrics.runs + sn.Cosynth.Metrics.runs);
                Printf.sprintf "%.1fx" st.Cosynth.Metrics.mean_leverage;
                Printf.sprintf "%.1fx" sn.Cosynth.Metrics.mean_leverage;
                string_of_int (degraded_events ts + degraded_events ss);
              ])
            chaos_schedules
        in
        (* Leverage vs crash rate (no-transit): outages degrade stages to
           the human path, so leverage falls as the crash rate rises. *)
        let crash_rows =
          List.map
            (fun rate ->
              let chaos = Resilience.Chaos.make ~crash_rate:rate ~seed:99 () in
              let resilience = Resilience.Runtime.config ~chaos () in
              let ss =
                c1_sweep
                  (Printf.sprintf "crash-%.2f" rate)
                  (fun seed ->
                    guarded
                      (Printf.sprintf "no-transit[crash %.2f seed %d]" rate seed)
                      synth_budget
                      (fun () ->
                        (Cosynth.Driver.run_no_transit ~seed ~resilience
                           ~routers:7 ())
                          .Cosynth.Driver.transcript))
              in
              let s = Cosynth.Metrics.summarize ss in
              [
                Printf.sprintf "%.2f" rate;
                Printf.sprintf "%.1f" s.Cosynth.Metrics.mean_auto;
                Printf.sprintf "%.1f" s.Cosynth.Metrics.mean_human;
                Printf.sprintf "%.1fx" s.Cosynth.Metrics.mean_leverage;
                Printf.sprintf "%d/%d" s.Cosynth.Metrics.converged s.Cosynth.Metrics.runs;
                string_of_int (degraded_events ss);
              ])
            [ 0.0; 0.05; 0.15; 0.30 ]
        in
        (* Pay-for-what-you-use: with every rate 0 the wrapped loops must
           produce byte-identical transcripts to the unwrapped ones. *)
        let zero =
          Resilience.Runtime.config ~chaos:(List.assoc "no faults" chaos_schedules) ()
        in
        let md t = Cosynth.Driver.transcript_to_markdown ~title:"run" t in
        let identical =
          List.for_all
            (fun seed ->
              md (Cosynth.Driver.run_translation ~seed ~resilience:zero ~cisco_text ())
                   .Cosynth.Driver.transcript
              = md (Cosynth.Driver.run_translation ~seed ~cisco_text ())
                  .Cosynth.Driver.transcript
              && md (Cosynth.Driver.run_no_transit ~seed ~resilience:zero ~routers:7 ())
                      .Cosynth.Driver.transcript
                 = md (Cosynth.Driver.run_no_transit ~seed ~routers:7 ())
                     .Cosynth.Driver.transcript)
            seeds
        in
        (rows, crash_rows, identical))
  in
  print_string
    (Cosynth.Report.table
       ~title:
         (Printf.sprintf
            "%d seeds per schedule, translation + 7-router no-transit" n)
       ~header:
         [ "fault schedule"; "converged"; "trans leverage"; "synth leverage"; "degraded" ]
       rows);
  print_newline ();
  print_string
    (Cosynth.Report.table
       ~title:"No-transit leverage vs crash rate (outages -> human checks -> lower leverage)"
       ~header:[ "crash rate"; "auto"; "human"; "leverage"; "converged"; "degraded" ]
       crash_rows);
  print_newline ();
  print_string
    (Cosynth.Metrics.verifier_table ~title:"Per-verifier resilience counters (whole sweep)"
       perf);
  Printf.printf "\n  rate-0 transcripts byte-identical to the unwrapped loops: %b\n"
    identical;
  if not identical then violation "rate-0 chaos transcripts differ from the unwrapped loops";
  Printf.printf "  invariant violations (uncaught exceptions / budget overruns): %d\n"
    (List.length !violations);
  List.iter (fun v -> Printf.printf "    VIOLATION: %s\n" v) (List.rev !violations);
  if !violations <> [] then exit 1

(* ------------------------------------------------------------------ *)
(* C2: supervised sweeps — worker loss, checkpoint/resume, policies    *)
(* ------------------------------------------------------------------ *)

let table_c2 () =
  section
    "C2 — Supervised sweeps: worker-domain loss, checkpoint/resume, per-verifier \
     policies";
  let n = if chaos_only then 12 else if smoke then 4 else 12 in
  let seeds = Exec.Sweep.seeds ~base:8800 ~n in
  let violations = ref [] in
  let violation fmt =
    Printf.ksprintf (fun s -> violations := s :: !violations) fmt
  in
  let run_seed resilience seed =
    (Cosynth.Driver.run_no_transit ~seed ~resilience ~routers:5 ())
      .Cosynth.Driver.transcript
  in
  let summary_line ts =
    Format.asprintf "%a" Cosynth.Metrics.pp_summary (Cosynth.Metrics.summarize ts)
  in
  let md_concat ts =
    String.concat "\n"
      (List.map (Cosynth.Driver.transcript_to_markdown ~title:"run") ts)
  in
  (* The pre-supervisor reference: today's plain pooled sweep. The rate-0
     supervised sweep below must reproduce it byte-for-byte. *)
  let zero = Resilience.Runtime.default_config in
  let baseline =
    Exec.Sweep.run_seeds ~pool ~seeds (fun seed -> run_seed zero seed)
  in
  let baseline_md = md_concat baseline in
  let baseline_table = summary_line baseline in
  (* Kill-rate sweep: every task runs under the supervisor's boundary on
     the shared pool; the loss plan is keyed on the seed itself. *)
  let rows =
    List.map
      (fun rate ->
        let chaos = Resilience.Chaos.make ~worker_loss_rate:rate ~seed:131 () in
        let resilience = Resilience.Runtime.config ~chaos () in
        (* Half the losses strike mid-task: the seed runs and is thrown
           away, exercising the at-least-once path. The loss schedule —
           and therefore every row — is identical to an all-at-dispatch
           plan; only the wasted work differs. *)
        let plan = Resilience.Chaos.worker_plan ~in_flight:0.5 chaos ~salt:0 in
        let p0 = Exec.Pool.stats pool in
        let c0 = Exec.Supervisor.stats () in
        let outcomes =
          Exec.Supervisor.map ~pool ~plan
            ~index_of:(fun s -> s)
            (run_seed resilience) seeds
        in
        let c = Exec.Supervisor.diff c0 (Exec.Supervisor.stats ()) in
        let restarts =
          (Exec.Pool.stats pool).Exec.Pool.restarts - p0.Exec.Pool.restarts
        in
        let ts = List.filter_map Exec.Supervisor.completed outcomes in
        let abandoned =
          List.length (List.filter Exec.Supervisor.abandoned outcomes)
        in
        let table_equal = summary_line ts = baseline_table in
        if rate = 0. && md_concat ts <> baseline_md then
          violation
            "rate-0 supervised sweep is not byte-identical to the plain pooled sweep";
        (* The acceptance bar: modest loss rates must cost retries, never
           results. *)
        if rate <= 0.2 && abandoned > 0 then
          violation "worker-loss rate %.2f abandoned %d seed(s)" rate abandoned;
        if rate <= 0.2 && not table_equal then
          violation "worker-loss rate %.2f drifted from the rate-0 table" rate;
        [
          Printf.sprintf "%.2f" rate;
          Printf.sprintf "%d/%d" (List.length ts) n;
          string_of_int abandoned;
          string_of_int c.Exec.Supervisor.losses;
          string_of_int c.Exec.Supervisor.requeues;
          string_of_int restarts;
          (if table_equal then "yes" else "DRIFT");
        ])
      [ 0.0; 0.05; 0.1; 0.2; 0.5 ]
  in
  print_string
    (Cosynth.Report.table
       ~title:
         (Printf.sprintf
            "%d-seed 5-router no-transit sweeps under worker-domain loss (budget %d \
             attempts/task)"
            n Exec.Supervisor.default_policy.Exec.Supervisor.max_attempts)
       ~header:
         [
           "loss rate"; "completed"; "abandoned"; "losses"; "requeues"; "restarts";
           "table = rate-0";
         ]
       rows);
  (* Checkpoint/resume: journal the first half, "crash", resume over the
     full seed list, and demand the identical table from the mix of
     journaled and fresh runs. *)
  let chaos = Resilience.Chaos.make ~worker_loss_rate:0.1 ~seed:131 () in
  let resilience = Resilience.Runtime.config ~chaos () in
  let plan = Resilience.Chaos.worker_plan chaos ~salt:0 in
  let sup_seed seed =
    Exec.Supervisor.run_one ~plan ~index:seed (fun () -> run_seed resilience seed)
  in
  let direct = List.map sup_seed seeds in
  let journal_path = Filename.temp_file "cosynth_c2_" ".jsonl" in
  let half = List.filteri (fun i _ -> i < n / 2) seeds in
  let j1 =
    Exec.Sweep.journal ~path:journal_path ~encode:Cosynth.Driver.outcome_to_json
      ~decode:Cosynth.Driver.outcome_of_json ()
  in
  ignore (Exec.Sweep.run_seeds ~journal:j1 ~seeds:half sup_seed);
  Exec.Sweep.journal_close j1;
  let j2 =
    Exec.Sweep.journal ~resume:true ~path:journal_path
      ~encode:Cosynth.Driver.outcome_to_json ~decode:Cosynth.Driver.outcome_of_json ()
  in
  let replayed = List.length (Exec.Sweep.journaled_seeds j2) in
  let resumed = Exec.Sweep.run_seeds ~journal:j2 ~seeds sup_seed in
  Exec.Sweep.journal_close j2;
  Sys.remove journal_path;
  let resumed_table =
    summary_line (List.filter_map Exec.Supervisor.completed resumed)
  in
  let direct_table =
    summary_line (List.filter_map Exec.Supervisor.completed direct)
  in
  let resume_ok = resumed_table = direct_table in
  Printf.printf
    "\n  resume: %d/%d seeds replayed from the journal; table identical to the \
     uninterrupted sweep: %b\n"
    replayed n resume_ok;
  if not resume_ok then
    violation "resumed sweep drifted from the uninterrupted sweep";
  (* Per-verifier policies: under one flake rate the cheap parse check may
     retry deeper than the expensive BGP sim ever can. *)
  let flaky =
    Resilience.Runtime.config
      ~chaos:(Resilience.Chaos.make ~flake_rate:0.3 ~seed:7 ()) ()
  in
  let v0 = Resilience.Stats.snapshot () in
  List.iter
    (fun seed -> ignore (run_seed flaky seed))
    (List.filteri (fun i _ -> i < 4) seeds);
  let d = Resilience.Stats.diff v0 (Resilience.Stats.snapshot ()) in
  let max_att k =
    (List.assoc k d).Resilience.Stats.max_attempts
  in
  let parse_max = max_att Resilience.Verifier.Parse_check in
  let bgp_max = max_att Resilience.Verifier.Bgp_sim in
  Printf.printf
    "  per-verifier policies under flake 0.30: parse-check max attempts %d, \
     bgp-sim max attempts %d\n"
    parse_max bgp_max;
  if bgp_max >= parse_max then
    violation
      "per-kind policies not in effect: bgp-sim reached %d attempts vs \
       parse-check's %d"
      bgp_max parse_max;
  Printf.printf "  invariant violations: %d\n" (List.length !violations);
  List.iter (fun v -> Printf.printf "    VIOLATION: %s\n" v) (List.rev !violations);
  if !violations <> [] then exit 1

(* ------------------------------------------------------------------ *)
(* S1: service mode — warm daemon vs cold per-job startup              *)
(* ------------------------------------------------------------------ *)

let table_s1 () =
  section "S1 — Service mode: warm `serve` daemon vs cold per-job startup";
  let module J = Json in
  let n = if smoke then 4 else 16 in
  let violations = ref [] in
  let violation fmt =
    Printf.ksprintf (fun s -> violations := s :: !violations) fmt
  in
  let seeds = Exec.Sweep.seeds ~base:12000 ~n in
  let fingerprint (t : Cosynth.Driver.transcript) =
    (t.Cosynth.Driver.auto_prompts, t.Cosynth.Driver.human_prompts,
     t.Cosynth.Driver.converged, t.Cosynth.Driver.rounds)
  in
  (* Cold: what per-job CLI invocations cost — every request pays for its
     own worker pool and starts with an empty parse memo. *)
  let cold, cold_perf =
    Cosynth.Metrics.measure (fun () ->
        List.map
          (fun seed ->
            Exec.Memo.reset ();
            let p = Exec.Pool.create ~domains:2 () in
            let r = Cosynth.Driver.run_no_transit ~seed ~pool:p ~routers:5 () in
            Exec.Pool.shutdown p;
            fingerprint r.Cosynth.Driver.transcript)
          seeds)
  in
  (* Warm: the same jobs through an in-process Exec.Serve daemon on a real
     Unix socket — one shared pool, one persistent memo, one connection. *)
  Exec.Memo.reset ();
  let dir = Filename.temp_file "cosynth_s1_" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let socket_path = Filename.concat dir "s1.sock" in
  let shared = Exec.Pool.create ~domains:2 () in
  let handle ~client:_ req =
    match Option.bind (J.member "job" req) J.to_str with
    | Some "synth" ->
        let seed =
          Option.value ~default:0 (Option.bind (J.member "seed" req) J.to_int)
        in
        let r = Cosynth.Driver.run_no_transit ~seed ~pool:shared ~routers:5 () in
        let t = r.Cosynth.Driver.transcript in
        Exec.Serve.Reply
          (J.Obj
             [
               ("ok", J.Bool true);
               ("auto", J.Int t.Cosynth.Driver.auto_prompts);
               ("human", J.Int t.Cosynth.Driver.human_prompts);
               ("converged", J.Bool t.Cosynth.Driver.converged);
               ("rounds", J.Int t.Cosynth.Driver.rounds);
             ])
    | Some "stop" -> Exec.Serve.Final (J.Obj [ ("ok", J.Bool true) ])
    | _ -> Exec.Serve.Reply (J.Obj [ ("ok", J.Bool false) ])
  in
  let server =
    Thread.create (fun () -> Exec.Serve.serve ~socket_path ~handle ()) ()
  in
  let warm, warm_perf =
    Cosynth.Metrics.measure (fun () ->
        Exec.Serve.with_connection ~socket_path (fun fd ->
            List.map
              (fun seed ->
                Exec.Serve.request fd
                  (J.Obj [ ("job", J.String "synth"); ("seed", J.Int seed) ]))
              seeds))
  in
  let memo_after = Exec.Memo.stats () in
  Exec.Serve.with_connection ~socket_path (fun fd ->
      ignore (Exec.Serve.request fd (J.Obj [ ("job", J.String "stop") ])));
  Thread.join server;
  Exec.Pool.shutdown shared;
  (try Sys.rmdir dir with _ -> ());
  (* Gate 1: the daemon returns the exact transcripts the cold runs
     computed — service mode is a perf story, never a semantics story. *)
  List.iteri
    (fun i reply ->
      let seed = List.nth seeds i in
      let field f conv = Option.bind (J.member f reply) conv in
      let got =
        match
          ( field "auto" J.to_int, field "human" J.to_int,
            field "converged" J.to_bool, field "rounds" J.to_int )
        with
        | Some a, Some h, Some c, Some r -> Some (a, h, c, r)
        | _ -> None
      in
      if field "ok" J.to_bool <> Some true then
        violation "seed %d: daemon reply not ok" seed
      else if got <> Some (List.nth cold i) then
        violation "seed %d: warm result differs from the cold run" seed)
    warm;
  (* Gate 2: the daemon's state really is warm — the persistent memo must
     serve hits across requests (each cold job starts from 0%). *)
  if memo_after.Exec.Memo.hits = 0 then
    violation "warm daemon served %d jobs without a single memo hit" n;
  let throughput (p : Cosynth.Metrics.perf) =
    float_of_int n /. Float.max p.Cosynth.Metrics.wall_s 1e-9
  in
  print_string
    (Cosynth.Report.table
       ~title:(Printf.sprintf "%d 5-router no-transit jobs per mode" n)
       ~header:[ "mode"; "wall"; "jobs/s"; "memo hit rate" ]
       [
         [
           "cold (pool + memo per job)";
           Printf.sprintf "%.2fs" cold_perf.Cosynth.Metrics.wall_s;
           Printf.sprintf "%.1f" (throughput cold_perf);
           "0% at job start";
         ];
         [
           "warm (serve daemon)";
           Printf.sprintf "%.2fs" warm_perf.Cosynth.Metrics.wall_s;
           Printf.sprintf "%.1f" (throughput warm_perf);
           Printf.sprintf "%.0f%%" (100. *. Exec.Memo.hit_rate memo_after);
         ];
       ]);
  Printf.printf "\n  warm/cold speedup: %.2fx\n"
    (cold_perf.Cosynth.Metrics.wall_s
    /. Float.max warm_perf.Cosynth.Metrics.wall_s 1e-9);
  (* Gate 3: warm must never be meaningfully slower than cold. Enforced
     only at full budget — at smoke budget the walls are tens of
     milliseconds and the check alias runs the bench rules in parallel, so
     scheduler noise dominates; gates 1–2 are the deterministic smoke
     invariants. *)
  if
    (not smoke)
    && warm_perf.Cosynth.Metrics.wall_s > 1.25 *. cold_perf.Cosynth.Metrics.wall_s
  then
    violation "warm daemon slower than cold startup (%.2fs vs %.2fs)"
      warm_perf.Cosynth.Metrics.wall_s cold_perf.Cosynth.Metrics.wall_s;
  match List.rev !violations with
  | [] -> Printf.printf "  S1: all invariants hold\n"
  | vs ->
      Printf.printf "\n  S1 GATE FAILED: %d violation(s)\n" (List.length vs);
      List.iter (fun v -> Printf.printf "  VIOLATION %s\n" v) vs;
      exit 1

(* ------------------------------------------------------------------ *)
(* S2: service hardening — admission, deadlines, drain under overload  *)
(* ------------------------------------------------------------------ *)

(* The gate runs the exact Cosynth.Service handler the CLI ships, as an
   in-process daemon on a real Unix socket, and drives it through one
   lifetime: unloaded byte-identity first (hardening must cost nothing on
   the happy path), then deadline expiry, the per-client cap, a
   2x-capacity burst, and finally a drain fired mid-burst. *)
let table_s2 () =
  section "S2 — Service hardening: admission, deadlines and drain under overload";
  let module J = Json in
  let violations = ref [] in
  let violation fmt =
    Printf.ksprintf (fun s -> violations := s :: !violations) fmt
  in
  let dir = Filename.temp_file "cosynth_s2_" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let socket_path = Filename.concat dir "s2.sock" in
  let cap = if smoke then 2 else 4 in
  let queue = 2 in
  let cfg =
    {
      Cosynth.Service.default_config with
      Cosynth.Service.domains = Some 1;
      debug_jobs = true;
      drain_grace_ms = 1_000;
      admission =
        {
          Resilience.Admission.max_in_flight = cap;
          max_queue = queue;
          max_per_client = 2;
          max_deadline_ms = 10_000;
          retry_after_ms = 20;
        };
    }
  in
  let summary = ref None in
  let server =
    Thread.create
      (fun () -> summary := Some (Cosynth.Service.serve ~socket_path cfg))
      ()
  in
  let with_conn f =
    Exec.Serve.with_connection ~total_budget_ms:5_000 ~socket_path f
  in
  let sleep_req ?(ms = 150) ?(deadline = 5_000) client =
    J.Obj
      [
        ("job", J.String "sleep");
        ("ms", J.Int ms);
        ("deadline_ms", J.Int deadline);
        ("client", J.String client);
      ]
  in
  (* Gate 1: unloaded byte-identity. The very first connection (client
     counter 0) sends the pre-hardening job set; every reply must be
     byte-identical to the frame the unhardened daemon would have written —
     computed here from direct driver/memo calls with the same budget
     clamping. Admission and deadlines may only add frames on the overload
     and expiry paths, never fields on this one. *)
  let synth_seed = 12345 in
  let expected_unloaded =
    let r =
      Cosynth.Driver.run_no_transit ~seed:synth_seed ~pool
        ~resilience:
          (Resilience.Runtime.config ~round_budget:64 ~stage_budget:32 ())
        ~routers:5 ()
    in
    let t = r.Cosynth.Driver.transcript in
    let _, diags = Exec.Memo.check Batfish.Parse_check.Cisco_ios cisco_text in
    [
      J.Obj [ ("ok", J.Bool true); ("pong", J.Bool true); ("client", J.Int 0) ];
      J.Obj
        [
          ("ok", J.Bool true);
          ("errors", J.Int (List.length (List.filter Diag.is_error diags)));
          ("diags", J.List (List.map (fun d -> J.String (Diag.to_string d)) diags));
        ];
      J.Obj
        [
          ("ok", J.Bool true);
          ("auto", J.Int t.Cosynth.Driver.auto_prompts);
          ("human", J.Int t.Cosynth.Driver.human_prompts);
          ("rounds", J.Int t.Cosynth.Driver.rounds);
          ("converged", J.Bool t.Cosynth.Driver.converged);
          ("global_ok", J.Bool r.Cosynth.Driver.global_ok);
        ];
    ]
  in
  let unloaded_reqs =
    [
      J.Obj [ ("job", J.String "ping") ];
      J.Obj [ ("job", J.String "parse"); ("text", J.String cisco_text) ];
      J.Obj
        [
          ("job", J.String "synth");
          ("seed", J.Int synth_seed);
          ("routers", J.Int 5);
        ];
    ]
  in
  let unloaded =
    with_conn (fun fd -> List.map (Exec.Serve.request fd) unloaded_reqs)
  in
  List.iteri
    (fun i got ->
      let want = List.nth expected_unloaded i in
      if J.to_string got <> J.to_string want then
        violation "unloaded reply %d not byte-identical: got %s, want %s" i
          (J.to_string got) (J.to_string want))
    (if List.length unloaded = List.length expected_unloaded then unloaded
     else begin
       violation "unloaded: %d replies for %d requests" (List.length unloaded)
         (List.length expected_unloaded);
       []
     end);
  (* Gate 2: deadline expiry. A sleep longer than its deadline must answer
     a structured timeout frame near the deadline — not after the full
     sleep, and never a hung connection — and the connection stays usable. *)
  let deadline_wall, timeout_ok, conn_alive =
    with_conn (fun fd ->
        let t0 = Unix.gettimeofday () in
        let r =
          Exec.Serve.request fd (sleep_req ~ms:1_500 ~deadline:100 "deadline")
        in
        let wall = Unix.gettimeofday () -. t0 in
        let timeout_ok =
          Option.bind (J.member "timeout" r) J.to_bool = Some true
          && Option.bind (J.member "ok" r) J.to_bool = Some false
          && Option.bind (J.member "deadline_ms" r) J.to_int = Some 100
        in
        let p = Exec.Serve.request fd (J.Obj [ ("job", J.String "ping") ]) in
        (wall, timeout_ok, Option.bind (J.member "ok" p) J.to_bool = Some true))
  in
  if not timeout_ok then violation "deadline expiry did not answer a timeout frame";
  if deadline_wall > 1.0 then
    violation "deadline-expired request took %.2fs (deadline 0.1s)" deadline_wall;
  if not conn_alive then violation "connection dead after a deadline expiry";
  (* Gate 3: the per-client cap. One identity flooding the daemon is shed
     with per-client frames even though global capacity remains. *)
  let greedy_outcomes = Array.make (cap + 2) `Pending in
  let greedy =
    List.init (cap + 2) (fun i ->
        Thread.create
          (fun () ->
            greedy_outcomes.(i) <-
              (try
                 with_conn (fun fd ->
                     match Exec.Serve.request fd (sleep_req ~ms:200 "greedy") with
                     | r
                       when Option.bind (J.member "ok" r) J.to_bool = Some true
                       ->
                         `Ok
                     | _ -> `Other
                     | exception Exec.Serve.Server_overloaded _ -> `Shed)
               with e -> ignore e; `Other))
          ())
  in
  List.iter Thread.join greedy;
  let count tag arr =
    Array.fold_left (fun acc o -> if o = tag then acc + 1 else acc) 0 arr
  in
  if count `Shed greedy_outcomes = 0 then
    violation "per-client cap never shed (%d concurrent jobs, cap 2)" (cap + 2);
  if count `Ok greedy_outcomes = 0 then
    violation "per-client flood: no job admitted at all";
  (* Gate 4: a 2x-capacity burst of distinct clients. Shed requests carry
     the structured retry frame and — because the frame is flow control,
     not failure — succeed on retry; nothing hangs past its deadline. *)
  let burst_n = 2 * (cap + queue) in
  let sheds = ref 0 in
  let sheds_m = Mutex.create () in
  let burst_outcomes = Array.make burst_n `Pending in
  let burst_walls = Array.make burst_n 0. in
  let burst_thread i =
    let t0 = Unix.gettimeofday () in
    let outcome =
      try
        with_conn (fun fd ->
            let req =
              sleep_req ~ms:(if smoke then 120 else 200)
                (Printf.sprintf "burst-%d" i)
            in
            let rec go tries =
              match Exec.Serve.request fd req with
              | r when Option.bind (J.member "ok" r) J.to_bool = Some true ->
                  `Ok
              | r
                when Option.bind (J.member "draining" r) J.to_bool = Some true
                ->
                  `Draining
              | _ -> `Other
              | exception Exec.Serve.Server_overloaded { retry_after_ms } ->
                  Mutex.lock sheds_m;
                  incr sheds;
                  Mutex.unlock sheds_m;
                  if tries >= 100 then `Shed_exhausted
                  else begin
                    Thread.delay (float_of_int (max 1 retry_after_ms) /. 1000.);
                    go (tries + 1)
                  end
            in
            go 0)
      with e -> ignore e; `Other
    in
    burst_outcomes.(i) <- outcome;
    burst_walls.(i) <- Unix.gettimeofday () -. t0
  in
  let burst = List.init burst_n (fun i -> Thread.create burst_thread i) in
  List.iter Thread.join burst;
  if !sheds = 0 then
    violation "2x-capacity burst (%d jobs, capacity %d+%d) never shed" burst_n
      cap queue;
  if count `Ok burst_outcomes <> burst_n then
    violation "burst: %d/%d requests did not complete ok on retry"
      (burst_n - count `Ok burst_outcomes)
      burst_n;
  Array.iteri
    (fun i w ->
      if w > 15. then violation "burst request %d took %.1fs (hang?)" i w)
    burst_walls;
  (* Gate 5: drain mid-burst. Fire a second burst, then drain while it is
     in flight: every admitted job still answers, requests arriving after
     the drain get the structured draining reject (including on
     connections that were already open), the server thread returns with
     drained=true, and the socket is unlinked. Zero admitted jobs lost =
     every thread ends in a terminal frame, none hangs or errors. *)
  let drain_n = cap + queue in
  let drain_outcomes = Array.make drain_n `Pending in
  let drain_burst =
    List.init drain_n (fun i ->
        Thread.create
          (fun () ->
            drain_outcomes.(i) <-
              (try
                 with_conn (fun fd ->
                     let req =
                       sleep_req ~ms:400 (Printf.sprintf "drain-%d" i)
                     in
                     match Exec.Serve.request fd req with
                     | r
                       when Option.bind (J.member "ok" r) J.to_bool = Some true
                       ->
                         `Ok
                     | r
                       when Option.bind (J.member "draining" r) J.to_bool
                            = Some true ->
                         `Draining
                     | r
                       when Option.bind (J.member "timeout" r) J.to_bool
                            = Some true ->
                         `Timeout
                     | _ -> `Other
                     | exception Exec.Serve.Server_overloaded _ -> `Shed)
               with e -> ignore e; `Error))
          ())
  in
  let late_reject =
    with_conn (fun fd ->
        (* Opened before the drain lands; its post-drain request must get
           the structured reject, not a closed socket. *)
        Thread.delay 0.1;
        let d =
          with_conn (fun dfd ->
              Exec.Serve.request dfd (J.Obj [ ("job", J.String "drain") ]))
        in
        if Option.bind (J.member "draining" d) J.to_bool <> Some true then
          violation "drain job did not ack with draining:true";
        match Exec.Serve.request fd (J.Obj [ ("job", J.String "ping") ]) with
        | r -> Option.bind (J.member "draining" r) J.to_bool = Some true
        | exception _ -> false)
  in
  if not late_reject then
    violation "post-drain request on a live connection got no draining reject";
  List.iter Thread.join drain_burst;
  let terminal = function
    | `Ok | `Draining | `Timeout | `Shed -> true
    | _ -> false
  in
  Array.iteri
    (fun i o ->
      if not (terminal o) then
        violation "drain burst request %d lost (no terminal reply)" i)
    drain_outcomes;
  if count `Ok drain_outcomes = 0 then
    violation "drain mid-burst: no admitted job completed";
  Thread.join server;
  if Sys.file_exists socket_path then
    violation "socket %s still exists after drain" socket_path;
  (try Sys.rmdir dir with _ -> ());
  (match !summary with
  | None -> violation "server thread returned no summary"
  | Some s ->
      if not s.Cosynth.Service.drained then
        violation "summary says the daemon did not drain";
      if s.Cosynth.Service.shed = 0 then
        violation "summary counted no shed requests";
      if s.Cosynth.Service.timed_out = 0 then
        violation "summary counted no deadline expiries");
  print_string
    (Cosynth.Report.counts
       ~title:
         (Printf.sprintf
            "one daemon lifetime: capacity %d + queue %d, burst %d, drain \
             mid-burst"
            cap queue burst_n)
       [
         ("unloaded byte-identical replies", List.length expected_unloaded);
         ("shed then completed on retry", count `Ok burst_outcomes);
         ("sheds observed", !sheds);
         ("admitted jobs answered under drain", count `Ok drain_outcomes);
         ( "draining rejects under drain",
           count `Draining drain_outcomes + if late_reject then 1 else 0 );
       ]);
  match List.rev !violations with
  | [] -> Printf.printf "\n  S2: all invariants hold\n"
  | vs ->
      Printf.printf "\n  S2 GATE FAILED: %d violation(s)\n" (List.length vs);
      List.iter (fun v -> Printf.printf "  VIOLATION %s\n" v) vs;
      exit 1

(* ------------------------------------------------------------------ *)
(* Performance benchmarks (Bechamel)                                   *)
(* ------------------------------------------------------------------ *)

let perf_tests () =
  let open Bechamel in
  let junos_text = Juniper.Printer.print correct_junos in
  let env = Eval.env_of_config border_ir in
  let to_provider = Option.get (Config_ir.find_route_map border_ir "to_provider") in
  let corrupted =
    fst
      (Juniper.Parser.parse
         (Llmsim.Fault.render Llmsim.Fault.Junos_cfg correct_junos
            [
              Llmsim.Fault.make Llmsim.Error_class.Wrong_med
                (Llmsim.Fault.Policy_entry ("to_provider", 10));
            ]))
  in
  let star5 = Star.make ~routers:5 in
  let configs5 =
    List.map
      (fun (t : Cosynth.Modularizer.router_task) ->
        (t.Cosynth.Modularizer.router, t.Cosynth.Modularizer.correct))
      (Cosynth.Modularizer.plan star5)
  in
  let net5 = Cosynth.Modularizer.compose star5 configs5 in
  let star15 = Star.make ~routers:15 in
  let hub15 =
    List.find
      (fun (t : Cosynth.Modularizer.router_task) ->
        t.Cosynth.Modularizer.router = star15.Star.hub)
      (Cosynth.Modularizer.plan star15)
  in
  let hub15_text = Cisco.Printer.print hub15.Cosynth.Modularizer.correct in
  let our_networks = Option.get (Config_ir.find_prefix_list border_ir "our-networks") in
  let private_ips = Option.get (Config_ir.find_prefix_list border_ir "private-ips") in
  let space_a = Symbolic.Guard.compile_prefix_list our_networks in
  let space_b = Symbolic.Guard.compile_prefix_list private_ips in
  [
    Test.make ~name:"prefix-space/inter+diff"
      (Staged.stage (fun () ->
           ignore
             (Symbolic.Prefix_space.diff space_b (Symbolic.Prefix_space.inter space_a space_b))));
    Test.make ~name:"symbolic/transfer-compile"
      (Staged.stage (fun () -> ignore (Symbolic.Transfer.compile env to_provider)));
    Test.make ~name:"symbolic/policy-diff"
      (Staged.stage (fun () ->
           ignore
             (Symbolic.Policy_diff.compare_maps ~env_a:env
                ~env_b:(Eval.env_of_config corrupted) to_provider
                (Option.get (Config_ir.find_route_map corrupted "to_provider")))));
    Test.make ~name:"cisco/parse"
      (Staged.stage (fun () -> ignore (Cisco.Parser.parse cisco_text)));
    Test.make ~name:"cisco/parse-hub15"
      (Staged.stage (fun () -> ignore (Cisco.Parser.parse hub15_text)));
    Test.make ~name:"junos/parse"
      (Staged.stage (fun () -> ignore (Juniper.Parser.parse junos_text)));
    Test.make ~name:"junos/translate+print"
      (Staged.stage (fun () ->
           ignore (Juniper.Printer.print (Juniper.Translate.of_cisco_ir border_ir))));
    Test.make ~name:"campion/compare"
      (Staged.stage (fun () ->
           ignore (Campion.Differ.compare ~original:border_ir ~translation:corrupted)));
    Test.make ~name:"batfish/route-policies-hub15"
      (Staged.stage (fun () ->
           ignore
             (Batfish.Search_route_policies.check_all hub15.Cosynth.Modularizer.correct
                hub15.Cosynth.Modularizer.specs)));
    Test.make ~name:"batfish/bgp-sim-star5"
      (Staged.stage (fun () -> ignore (Batfish.Bgp_sim.run net5)));
    Test.make ~name:"lightyear/prove-star5"
      (Staged.stage (fun () -> ignore (Cosynth.Lightyear.prove_no_transit star5 configs5)));
    (let acl = Option.get (Config_ir.find_acl border_ir "mgmt-in") in
     let flipped =
       Acl.make acl.Acl.name
         (List.map
            (fun (e : Acl.entry) ->
              if e.Acl.seq = 10 then { e with Acl.action = Action.flip e.Acl.action } else e)
            acl.Acl.entries)
     in
     Test.make ~name:"acl/symbolic-diff"
       (Staged.stage (fun () -> ignore (Symbolic.Acl_diff.compare_acls acl flipped))));
    Test.make ~name:"loop/translation-e2e"
      (Staged.stage (fun () -> ignore (Cosynth.Driver.run_translation ~seed:5 ~cisco_text ())));
    Test.make ~name:"loop/no-transit-5-e2e"
      (Staged.stage (fun () -> ignore (Cosynth.Driver.run_no_transit ~seed:5 ~routers:5 ())));
  ]

let run_perf () =
  section "Performance benchmarks (Bechamel, monotonic clock)";
  let open Bechamel in
  let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |] in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:300 ~quota:(Time.second 0.25) () in
  let grouped = Test.make_grouped ~name:"cosynth" (perf_tests ()) in
  let raw = Benchmark.all cfg [ instance ] grouped in
  let results = Analyze.all ols instance raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols ->
      let ns = match Analyze.OLS.estimates ols with Some (e :: _) -> e | _ -> nan in
      rows := (name, ns) :: !rows)
    results;
  let rows = List.sort (fun (a, _) (b, _) -> String.compare a b) !rows in
  let human ns =
    if ns > 1e9 then Printf.sprintf "%8.2f s " (ns /. 1e9)
    else if ns > 1e6 then Printf.sprintf "%8.2f ms" (ns /. 1e6)
    else if ns > 1e3 then Printf.sprintf "%8.2f us" (ns /. 1e3)
    else Printf.sprintf "%8.0f ns" ns
  in
  print_string
    (Cosynth.Report.table ~title:"time per run (OLS estimate)"
       ~header:[ "benchmark"; "time/run" ]
       (List.map (fun (n, ns) -> [ n; human ns ]) rows))

(* ------------------------------------------------------------------ *)
(* F1: the fuzzing gate — totality of every pipeline stage             *)
(* ------------------------------------------------------------------ *)

(* Found relative to wherever the harness runs: the repo root (`make
   fuzz`) or _build/default/bench (the check-alias rule). *)
let corpus_dir () =
  List.find_opt
    (fun d -> Sys.file_exists d && Sys.is_directory d)
    [ "test/corpus"; "../test/corpus"; "../../test/corpus" ]

let table_f1 () =
  section "F1 — fuzz gate: every stage total on mutated config text";
  Resilience.Guard.reset ();
  let violations = ref [] in
  (* 1. Regression corpus: every previously found crasher stays fixed. *)
  let replayed =
    match corpus_dir () with
    | None ->
        Printf.printf "  regression corpus: not found (run from the repo root)\n";
        []
    | Some dir -> Fuzz.Props.replay_dir dir
  in
  List.iter
    (fun (file, escapes) ->
      List.iter
        (fun e ->
          violations := Printf.sprintf "corpus %s: %s" file (Fuzz.Props.escape_to_string e) :: !violations)
        escapes)
    replayed;
  Printf.printf "  regression corpus: %d file(s) replayed, %d escape(s)\n"
    (List.length replayed)
    (List.fold_left (fun acc (_, es) -> acc + List.length es) 0 replayed);
  (* 2. The planted-bug canary: a deliberately buggy parser must be found,
     minimized and attributed. *)
  (match Fuzz.Props.canary ~max_rounds:(if smoke then 500 else 2000) () with
  | Ok e ->
      Printf.printf
        "  canary: planted parser bug caught at seed=%d round=%d, minimized %dB -> %dB\n\
        \          reported as stage=%s constructor=%s fingerprint=%s\n"
        e.Fuzz.Props.seed e.Fuzz.Props.round
        (String.length e.Fuzz.Props.input)
        (String.length e.Fuzz.Props.minimized)
        e.Fuzz.Props.violation.Fuzz.Props.stage
        e.Fuzz.Props.violation.Fuzz.Props.constructor e.Fuzz.Props.fingerprint
  | Error why -> violations := ("canary: " ^ why) :: !violations);
  (* 3. The seeded mutation sweep over both dialects. COSYNTH_FUZZ_SEEDS /
     COSYNTH_FUZZ_MUTATIONS override the budget for deeper hunts. *)
  let env_int name =
    match Sys.getenv_opt name with
    | Some s -> ( match int_of_string_opt s with Some n when n > 0 -> Some n | _ -> None)
    | None -> None
  in
  let seeds =
    match env_int "COSYNTH_FUZZ_SEEDS" with
    | Some n -> List.init n (fun i -> i + 1)
    | None -> if smoke then [ 1; 2 ] else [ 1; 2; 3; 4; 5; 6; 7; 8 ]
  in
  let mutations =
    match env_int "COSYNTH_FUZZ_MUTATIONS" with
    | Some n -> n
    | None -> if smoke then 30 else 40
  in
  List.iter
    (fun dialect ->
      let r = Fuzz.Props.run dialect ~seeds ~mutations in
      Printf.printf "  %s: %d mutated input(s), %d escape(s)\n"
        (Fuzz.Corpus.dialect_name dialect)
        r.Fuzz.Props.inputs
        (List.length r.Fuzz.Props.escapes);
      List.iter
        (fun e -> violations := Fuzz.Props.escape_to_string e :: !violations)
        r.Fuzz.Props.escapes)
    [ Fuzz.Corpus.Cisco; Fuzz.Corpus.Junos ];
  (* 3b. Structured-text targets: the topology verifier on mutated JSON
     dictionaries and the policy parser + semantic check on mutated policy
     fragments, both under the weighted (coverage-guided) schedule. *)
  List.iter
    (fun (name, run_target) ->
      let schedule = Fuzz.Mutator.history () in
      let r = run_target ~schedule ~seeds ~mutations () in
      let hot =
        List.filter
          (fun (_, s) -> s > 0)
          (List.init Fuzz.Mutator.n_ops (fun op ->
               (Fuzz.Mutator.op_name op, Fuzz.Mutator.score schedule ~op)))
      in
      Printf.printf "  %s: %d mutated input(s), %d escape(s)%s\n" name
        r.Fuzz.Props.inputs
        (List.length r.Fuzz.Props.escapes)
        (match hot with
        | [] -> ""
        | _ ->
            Printf.sprintf " (op scores: %s)"
              (String.concat ", "
                 (List.map (fun (n, s) -> Printf.sprintf "%s=%d" n s) hot)));
      List.iter
        (fun e ->
          violations := Printf.sprintf "%s: %s" name (Fuzz.Props.escape_to_string e) :: !violations)
        r.Fuzz.Props.escapes)
    [
      ("topology", fun ~schedule -> Fuzz.Props.run_topology ~schedule);
      ("policy", fun ~schedule -> Fuzz.Props.run_policy ~schedule);
    ];
  (* 4. Crash buckets: everything Guard caught during the gate, by stage
     and constructor (the canary's bucket demonstrates the accounting). *)
  (match Resilience.Guard.crashes () with
  | [] -> Printf.printf "\n  guarded crashes: none\n"
  | rows ->
      print_string
        (Cosynth.Report.table ~title:"guarded crashes by stage/constructor"
           ~header:[ "stage"; "constructor"; "count" ]
           (List.map
              (fun (stage, ctor, n) -> [ stage; ctor; string_of_int n ])
              rows)));
  match List.rev !violations with
  | [] -> Printf.printf "\n  F1: zero unguarded escapes\n"
  | vs ->
      Printf.printf "\n  F1 GATE FAILED: %d escape(s)\n" (List.length vs);
      List.iter (fun v -> Printf.printf "  ESCAPE %s\n" v) vs;
      exit 1

(* ------------------------------------------------------------------ *)
(* A1: the adversarial-robustness gate                                  *)
(* ------------------------------------------------------------------ *)

(* Every adversary dimension, Byzantine-LLM and feedback-corruption alike,
   as (spec builder, row label) pairs for the leverage table. *)
let a1_dimensions =
  List.map
    (fun m ->
      ( (fun rate ->
          Adversary.Spec.make
            ~llm:(Adversary.Llm.with_rate (Adversary.Llm.make ()) m rate)
            ()),
        "llm:" ^ Adversary.Llm.mode_name m ))
    Adversary.Llm.all_modes
  @ List.map
      (fun m ->
        ( (fun rate ->
            Adversary.Spec.make
              ~findings:
                (Adversary.Findings.with_rate
                   (Adversary.Findings.make ()) m rate)
              ()),
          "feedback:" ^ Adversary.Findings.mode_name m ))
      Adversary.Findings.all_modes

let a1_rates = [ 0.0; 0.15; 0.4 ]
let a1_budget = 40

let table_a1 () =
  section "A1 — adversarial robustness: leverage vs adversary rate x mode";
  let violations = ref [] in
  let violation fmt =
    Printf.ksprintf (fun s -> violations := s :: !violations) fmt
  in
  let n = if smoke then 4 else 20 in
  let seeds = Exec.Sweep.seeds ~base:9900 ~n in
  (* 1. The rate-0 identity pin: a spec with every rate 0 must leave both
     renderings of the transcript byte-identical to a run with no spec at
     all. *)
  List.iter
    (fun seed ->
      let t spec =
        (Cosynth.Driver.run_translation ~seed ?adversary:spec ~cisco_text ())
          .Cosynth.Driver.transcript
      in
      let plain = t None and zero = t (Some Adversary.Spec.none) in
      if
        Cosynth.Driver.transcript_to_markdown ~title:"A1" plain
        <> Cosynth.Driver.transcript_to_markdown ~title:"A1" zero
      then violation "rate-0 markdown identity broken at seed %d" seed;
      if
        Netcore.Json.to_string (Cosynth.Driver.transcript_to_json plain)
        <> Netcore.Json.to_string (Cosynth.Driver.transcript_to_json zero)
      then violation "rate-0 JSON identity broken at seed %d" seed)
    seeds;
  Printf.printf "  rate-0 identity: %d seed(s), markdown and JSON byte-identical\n"
    (List.length seeds);
  (* 2. The leverage table: one sweep per (mode, rate) cell. Each hardened
     transcript must stay within budget and carry a certificate; a rate-0
     spec must carry none. *)
  let sweep spec_opt =
    List.map
      (fun seed ->
        (Cosynth.Driver.run_translation ~seed ?adversary:spec_opt
           ~max_prompts:a1_budget ~cisco_text ())
          .Cosynth.Driver.transcript)
      seeds
  in
  let fmt_cell s =
    Printf.sprintf "%5.1fx%s %d/%d" s.Cosynth.Metrics.mean_leverage
      (if s.Cosynth.Metrics.infinite_leverage > 0 then "*" else " ")
      s.Cosynth.Metrics.converged s.Cosynth.Metrics.runs
  in
  let all_certs = ref [] in
  let rows =
    List.map
      (fun (spec_of_rate, label) ->
        let cells =
          List.map
            (fun rate ->
              let spec = spec_of_rate rate in
              let hardened = not (Adversary.Spec.is_none spec) in
              let ts = sweep (Some spec) in
              List.iter2
                (fun seed (t : Cosynth.Driver.transcript) ->
                  let prompts = t.Cosynth.Driver.auto_prompts + t.Cosynth.Driver.human_prompts in
                  if prompts > a1_budget then
                    violation "%s rate %.2f seed %d: %d prompts exceed budget %d"
                      label rate seed prompts a1_budget;
                  match (hardened, t.Cosynth.Driver.certificate) with
                  | true, None ->
                      violation "%s rate %.2f seed %d: hardened run without certificate"
                        label rate seed
                  | false, Some _ ->
                      violation "%s rate %.2f seed %d: rate-0 run carries a certificate"
                        label rate seed
                  | _ -> ())
                seeds ts;
              if hardened then all_certs := !all_certs @ ts;
              Cosynth.Metrics.summarize ts)
            a1_rates
        in
        (* Monotonic-ish degradation: an adversary can inflate raw leverage
           (it manufactures automated busywork) and can even cut prompt
           counts (the watchdog ends a hopeless run early), so the gate pins
           the one quantity an adversary can only hurt — the heaviest rate
           must not converge more often than the clean loop. *)
        (match (cells, List.rev cells) with
        | base :: _, worst :: _ ->
            if worst.Cosynth.Metrics.converged > base.Cosynth.Metrics.converged then
              violation "%s: attack improved convergence (%d/%d -> %d/%d)" label
                base.Cosynth.Metrics.converged base.Cosynth.Metrics.runs
                worst.Cosynth.Metrics.converged worst.Cosynth.Metrics.runs
        | _ -> ());
        label :: List.map fmt_cell cells)
      a1_dimensions
  in
  print_string
    (Cosynth.Report.table
       ~title:
         (Printf.sprintf
            "mean leverage and converged/runs, %d seed(s) per cell (* = some runs \
             with no human prompt)"
            n)
       ~header:("adversary mode" :: List.map (Printf.sprintf "rate %.2f") a1_rates)
       rows);
  print_string
    (Cosynth.Report.counts ~title:"convergence certificates (hardened cells)"
       (Cosynth.Metrics.certificates !all_certs));
  (* 3. Loop-level fuzzers: the corrupted-findings feedback path at rate 1
     per corruption mode, and the full loop under each Byzantine-LLM mode. *)
  let cases = if smoke then 60 else 250 in
  List.iter
    (fun mode ->
      let vs = Fuzz.Props.fuzz_corrupted_findings ~mode ~seed:7 ~cases in
      Printf.printf "  corrupted-findings fuzz [%s]: %d case(s), %d escape(s)\n"
        (Adversary.Findings.mode_name mode)
        cases (List.length vs);
      List.iter
        (fun (v : Fuzz.Props.violation) ->
          violation "corrupted-findings [%s]: %s in %s (%s)"
            (Adversary.Findings.mode_name mode)
            v.Fuzz.Props.constructor v.Fuzz.Props.stage v.Fuzz.Props.detail)
        vs)
    Adversary.Findings.all_modes;
  let loop_seeds = if smoke then [ 11 ] else [ 11; 12; 13; 14 ] in
  List.iter
    (fun mode ->
      List.iter
        (fun seed ->
          List.iter
            (fun (v : Fuzz.Props.violation) ->
              violation "loop fuzz [%s] seed %d: %s (%s)"
                (Adversary.Llm.mode_name mode)
                seed v.Fuzz.Props.property v.Fuzz.Props.detail)
            (Fuzz.Props.fuzz_loop ~mode ~seed ~rate:0.35))
        loop_seeds)
    Adversary.Llm.all_modes;
  Printf.printf "  loop fuzz: %d mode(s) x %d seed(s) at rate 0.35, all within budget\n"
    (List.length Adversary.Llm.all_modes)
    (List.length loop_seeds);
  match List.rev !violations with
  | [] -> Printf.printf "\n  A1: all invariants hold\n"
  | vs ->
      Printf.printf "\n  A1 GATE FAILED: %d violation(s)\n" (List.length vs);
      List.iter (fun v -> Printf.printf "  VIOLATION %s\n" v) vs;
      exit 1

(* Every verifier-lie mode as (config builder, row label) pairs for the A2
   headline table. The adaptive false-negative variant gets its own row so
   the escalation schedule is swept alongside the flat rates. *)
let a2_modes =
  [
    ( (fun rate -> Adversary.Verifier.make ~false_negative:rate ()),
      "lie:false-negative" );
    ( (fun rate -> Adversary.Verifier.make ~false_positive:rate ()),
      "lie:false-positive" );
    ((fun rate -> Adversary.Verifier.make ~mutated:rate ()), "lie:mutated");
    ( (fun rate -> Adversary.Verifier.make ~false_negative:rate ~adaptive:true ()),
      "lie:false-negative+adaptive" );
  ]

let a2_rates = [ 0.0; 0.35; 0.6 ]
let a2_budget = 40

let table_a2 () =
  section "A2 — Byzantine verifiers: lying checks vs the cross-check trust layer";
  let violations = ref [] in
  let violation fmt =
    Printf.ksprintf (fun s -> violations := s :: !violations) fmt
  in
  let n = if smoke then 4 else 12 in
  let seeds = Exec.Sweep.seeds ~base:9950 ~n in
  let trust_cfg = Resilience.Trust.default_config in
  let md = Cosynth.Driver.transcript_to_markdown ~title:"A2" in
  let js t = Netcore.Json.to_string (Cosynth.Driver.transcript_to_json t) in
  (* 1. The identity pins. A spec whose only payload is an all-zero verifier
     config (adaptivity on, with nothing to escalate) must leave both
     transcript renderings byte-identical to a plain run — the rate-0
     invariant A1 pins, extended to the verifier-lie dimension. And arming
     the trust ledger against *honest* verifiers must change nothing either:
     cross-checks that agree are silent. *)
  List.iter
    (fun seed ->
      let run ?adversary ?trust () =
        (Cosynth.Driver.run_translation ~seed ?adversary ?trust ~cisco_text ())
          .Cosynth.Driver.transcript
      in
      let plain = run () in
      let zero =
        run
          ~adversary:
            (Adversary.Spec.make ~verifier:(Adversary.Verifier.make ~adaptive:true ()) ())
          ()
      in
      if md plain <> md zero then
        violation "rate-0 verifier-lie markdown identity broken at seed %d" seed;
      if js plain <> js zero then
        violation "rate-0 verifier-lie JSON identity broken at seed %d" seed;
      let honest_trust = run ~trust:trust_cfg () in
      if md plain <> md honest_trust then
        violation "honest trust-on markdown identity broken at seed %d" seed;
      if js plain <> js honest_trust then
        violation "honest trust-on JSON identity broken at seed %d" seed)
    seeds;
  Printf.printf
    "  rate-0 + honest-trust identity: %d seed(s), markdown and JSON byte-identical\n"
    (List.length seeds);
  (* 2. The headline sweep: end-state verified rate (the raw Batfish+Campion
     recheck of the final draft — the one signal a lying verifier cannot
     forge) and detected lies, trust off vs on, per (mode, rate) cell. Runs
     stay sequential so each run's global trust-counter delta is
     attributable to it — the per-run budget-compliance check needs that. *)
  let sweep ~trust spec_opt =
    List.map
      (fun seed ->
        let before = Resilience.Trust.snapshot () in
        let r =
          Cosynth.Driver.run_translation ~seed ?adversary:spec_opt
            ?trust:(if trust then Some trust_cfg else None)
            ~max_prompts:a2_budget ~cisco_text ()
        in
        let delta =
          Resilience.Trust.totals
            (Resilience.Trust.diff (Resilience.Trust.snapshot ()) before)
        in
        (r, delta))
      seeds
  in
  let verified rs =
    List.length
      (List.filter
         (fun ((r : Cosynth.Driver.translation_result), _) -> r.Cosynth.Driver.verified)
         rs)
  in
  let lies rs =
    List.fold_left (fun acc (_, d) -> acc + d.Resilience.Trust.disagreements) 0 rs
  in
  let honest_verified = verified (sweep ~trust:false None) in
  let rows, perf =
    Cosynth.Metrics.measure (fun () ->
        List.map
          (fun (cfg_of_rate, label) ->
            let cells =
              List.map
                (fun rate ->
                  let vcfg = cfg_of_rate rate in
                  let spec = Adversary.Spec.make ~verifier:vcfg () in
                  let hardened = not (Adversary.Spec.is_none spec) in
                  let spec_opt = if hardened then Some spec else None in
                  let off = sweep ~trust:false spec_opt in
                  let on = sweep ~trust:true spec_opt in
                  List.iter
                    (fun (tag, runs, trust) ->
                      List.iter2
                        (fun seed ((r : Cosynth.Driver.translation_result), d) ->
                          let t = r.Cosynth.Driver.transcript in
                          let prompts =
                            t.Cosynth.Driver.auto_prompts + t.Cosynth.Driver.human_prompts
                          in
                          if prompts > a2_budget then
                            violation "%s rate %.2f seed %d [%s]: %d prompts exceed budget %d"
                              label rate seed tag prompts a2_budget;
                          (match (hardened, t.Cosynth.Driver.certificate) with
                          | true, None ->
                              violation
                                "%s rate %.2f seed %d [%s]: hardened run without certificate"
                                label rate seed tag
                          | false, Some _ ->
                              violation
                                "%s rate %.2f seed %d [%s]: rate-0 run carries a certificate"
                                label rate seed tag
                          | _ -> ());
                          if trust then begin
                            if
                              d.Resilience.Trust.cross_checks
                              > trust_cfg.Resilience.Trust.check_budget
                            then
                              violation
                                "%s rate %.2f seed %d: %d cross-checks exceed budget %d"
                                label rate seed d.Resilience.Trust.cross_checks
                                trust_cfg.Resilience.Trust.check_budget
                          end
                          else if d <> Resilience.Trust.zero then
                            violation
                              "%s rate %.2f seed %d: trust-off run recorded trust activity"
                              label rate seed)
                        seeds runs)
                    [ ("trust off", off, false); ("trust on", on, true) ];
                  (* The acceptance headline, pinned on the false-negative
                     rows (the swallowed-findings attack the trust layer
                     exists for): at rate >= 0.3 the ledger must restore the
                     verified rate to >= 80% of the honest baseline, the
                     trust-off ablation must do strictly worse, and at least
                     one lie must actually be caught. *)
                  if vcfg.Adversary.Verifier.false_negative >= 0.3 then begin
                    if
                      float_of_int (verified on)
                      < 0.8 *. float_of_int honest_verified
                    then
                      violation
                        "%s rate %.2f: trust-on verified %d/%d below 80%% of honest %d/%d"
                        label rate (verified on) n honest_verified n;
                    if verified off >= verified on then
                      violation
                        "%s rate %.2f: trust-off ablation shows no collapse (%d/%d vs %d/%d)"
                        label rate (verified off) n (verified on) n;
                    if lies on = 0 then
                      violation "%s rate %.2f: trust layer detected no lies" label rate
                  end;
                  (verified off, verified on, lies on))
                a2_rates
            in
            label
            :: List.map
                 (fun (voff, von, l) -> Printf.sprintf "%d/%d|%d/%d L%-3d" voff n von n l)
                 cells)
          a2_modes)
  in
  print_string
    (Cosynth.Report.table
       ~title:
         (Printf.sprintf
            "verified runs, trust off|on, and detected lies (L), %d seed(s) per cell \
             (honest baseline %d/%d)"
            n honest_verified n)
       ~header:("lie mode" :: List.map (Printf.sprintf "rate %.2f") a2_rates)
       rows);
  print_string
    (Cosynth.Report.table ~title:"trust-layer activity over the sweep (trust-on cells)"
       ~header:Cosynth.Metrics.trust_header
       (Cosynth.Metrics.trust_rows perf));
  Format.printf "  %a@." Cosynth.Metrics.pp_perf perf;
  match List.rev !violations with
  | [] -> Printf.printf "\n  A2: all invariants hold\n"
  | vs ->
      Printf.printf "\n  A2 GATE FAILED: %d violation(s)\n" (List.length vs);
      List.iter (fun v -> Printf.printf "  VIOLATION %s\n" v) vs;
      exit 1

(* ------------------------------------------------------------------ *)
(* A3 — collusion-resistant trust: the compromised-oracle gate          *)
(* ------------------------------------------------------------------ *)

(* The coalition under test: the two cheapest-to-own kinds plus the
   cross-check oracle itself — the configuration PR 8's
   oracle-as-ground-truth trust layer cannot see at all. *)
let a3_coalition = [ Resilience.Verifier.Parse_check; Resilience.Verifier.Campion ]
let a3_rates = [ 0.0; 0.35 ]
let a3_budget = 60

let table_a3 () =
  section
    "A3 — Collusion-resistant trust: compromised oracle vs quorum cross-checks";
  let violations = ref [] in
  let violation fmt =
    Printf.ksprintf (fun s -> violations := s :: !violations) fmt
  in
  let n = if smoke then 4 else 12 in
  let seeds = Exec.Sweep.seeds ~base:9980 ~n in
  let cfg = Resilience.Trust.default_config in
  let md = Cosynth.Driver.transcript_to_markdown ~title:"A3" in
  let js t = Netcore.Json.to_string (Cosynth.Driver.transcript_to_json t) in
  let collusion ~rate seed =
    Adversary.Spec.make
      ~collusion:
        (Adversary.Collusion.make ~members:a3_coalition ~oracle:true ~rate ~seed ())
      ()
  in
  (* 1. The identity pins. An armed coalition at rate 0 must leave both
     transcript renderings byte-identical to a plain run (the A1/A2 rate-0
     invariant, extended to the collusion dimension); auditing honest
     clean-agreements must change nothing either; and a trust ledger
     restored from an all-initial-scores persisted entry must behave
     exactly like a freshly created one, under attack included. *)
  List.iter
    (fun seed ->
      let run ?adversary ?trust ?trust_ledger () =
        (Cosynth.Driver.run_translation ~seed ?adversary ?trust ?trust_ledger
           ~cisco_text ())
          .Cosynth.Driver.transcript
      in
      let plain = run () in
      let zero = run ~adversary:(collusion ~rate:0.0 seed) () in
      if md plain <> md zero then
        violation "rate-0 collusion markdown identity broken at seed %d" seed;
      if js plain <> js zero then
        violation "rate-0 collusion JSON identity broken at seed %d" seed;
      let honest_quorum = run ~trust:cfg () in
      if md plain <> md honest_quorum then
        violation "honest-quorum markdown identity broken at seed %d" seed;
      if js plain <> js honest_quorum then
        violation "honest-quorum JSON identity broken at seed %d" seed;
      let initial =
        Resilience.Trust.state_of (Resilience.Trust.create cfg)
          ~counters:Resilience.Trust.zero ~quorum:Resilience.Trust.zero_quorum
      in
      let fresh = run ~adversary:(collusion ~rate:0.5 seed) ~trust:cfg () in
      let restored =
        run ~adversary:(collusion ~rate:0.5 seed)
          ~trust_ledger:(Resilience.Trust.create_from cfg initial)
          ()
      in
      if md fresh <> md restored then
        violation "restored-ledger transcript diverges from fresh at seed %d" seed)
    seeds;
  Printf.printf
    "  rate-0 + honest-quorum + restored-ledger identity: %d seed(s) byte-identical\n"
    (List.length seeds);
  (* 2. The headline sweep: end-state verified rate (the raw recheck of the
     final draft — the one signal even a compromised oracle cannot forge)
     per defense x collusion rate. Oracle-only (audit budget 0) is PR 8's
     trust layer: under a coalition that owns the oracle every cross-check
     agrees with the lie, so it must collapse. Quorum K=4 hand-runs
     referees that outweigh the two-party camp and must restore the
     verified rate; K=3 is the deliberately-too-small quorum the camp
     outvotes. Runs stay sequential so each run's quorum-counter delta is
     attributable to it. *)
  let modes =
    [
      ("oracle-only (PR 8)", { cfg with Resilience.Trust.audit_budget = 0 });
      ("quorum K=4", cfg);
      ("quorum K=3", { cfg with Resilience.Trust.quorum = 3 });
    ]
  in
  let sweep trust_cfg rate =
    List.map
      (fun seed ->
        let q0 = Resilience.Trust.quorum_snapshot () in
        let spec = collusion ~rate seed in
        let adversary = if Adversary.Spec.is_none spec then None else Some spec in
        let r =
          Cosynth.Driver.run_translation ~seed ?adversary ~trust:trust_cfg
            ~max_prompts:a3_budget ~cisco_text ()
        in
        let dq =
          Resilience.Trust.diff_quorum (Resilience.Trust.quorum_snapshot ()) q0
        in
        (r, dq))
      seeds
  in
  let results, perf =
    Cosynth.Metrics.measure (fun () ->
        List.map
          (fun (label, trust_cfg) ->
            let cells =
              List.map
                (fun rate ->
                  let runs = sweep trust_cfg rate in
                  let verified =
                    List.length
                      (List.filter
                         (fun ((r : Cosynth.Driver.translation_result), _) ->
                           r.Cosynth.Driver.verified)
                         runs)
                  in
                  let overruled =
                    List.fold_left
                      (fun acc (_, dq) -> acc + dq.Resilience.Trust.overruled)
                      0 runs
                  in
                  let oracle_q =
                    List.fold_left
                      (fun acc (_, dq) ->
                        acc + dq.Resilience.Trust.oracle_quarantines)
                      0 runs
                  in
                  List.iter2
                    (fun seed (_, dq) ->
                      (* Overruled audits refund their charge, so the budget
                         bounds the audits that found nothing. *)
                      if
                        dq.Resilience.Trust.audits - dq.Resilience.Trust.overruled
                        > trust_cfg.Resilience.Trust.audit_budget
                      then
                        violation
                          "%s rate %.2f seed %d: %d charged audits exceed budget %d"
                          label rate seed
                          (dq.Resilience.Trust.audits - dq.Resilience.Trust.overruled)
                          trust_cfg.Resilience.Trust.audit_budget)
                    seeds runs;
                  if rate = 0.0 then begin
                    (* Collusion-free, the quorum may spend audits but must
                       never overrule an honest agreement or quarantine the
                       honest oracle. *)
                    if overruled > 0 then
                      violation "%s rate 0: %d honest agreement(s) overruled" label
                        overruled;
                    if oracle_q > 0 then
                      violation "%s rate 0: honest oracle quarantined" label
                  end;
                  (verified, overruled, oracle_q))
                a3_rates
            in
            (label, trust_cfg, cells))
          modes)
  in
  (* 3. The acceptance headline, pinned at every attack rate >= 0.35: the
     oracle-only defense must collapse (collusion wins), the full quorum
     must restore the verified rate and both catch collusions and
     quarantine the compromised oracle. K=3 carries no bound — losing is
     its documented behavior — but it must never beat K=4. *)
  List.iter
    (fun (label, trust_cfg, cells) ->
      List.iter2
        (fun rate (verified, overruled, oracle_q) ->
          if rate >= 0.35 then
            if trust_cfg.Resilience.Trust.audit_budget = 0 then begin
              if verified > (2 * n + 11) / 12 then
                violation
                  "%s rate %.2f: oracle-only verified %d/%d — the coalition should win"
                  label rate verified n
            end
            else if trust_cfg.Resilience.Trust.quorum >= 4 then begin
              if verified < 10 * n / 12 then
                violation "%s rate %.2f: quorum verified %d/%d below the 10/12 bar"
                  label rate verified n;
              if overruled = 0 then
                violation "%s rate %.2f: no colluding agreement overruled" label rate;
              if oracle_q = 0 then
                violation "%s rate %.2f: compromised oracle never quarantined" label
                  rate
            end)
        a3_rates cells)
    results;
  (match (List.nth_opt results 1, List.nth_opt results 2) with
  | Some (_, _, k4), Some (_, _, k3) ->
      List.iter2
        (fun rate ((v4, _, _), (v3, _, _)) ->
          if rate >= 0.35 && v3 > v4 then
            violation "quorum K=3 verified %d/%d beats K=4's %d/%d at rate %.2f" v3 n
              v4 n rate)
        a3_rates (List.combine k4 k3)
  | _ -> ());
  print_string
    (Cosynth.Report.table
       ~title:
         (Printf.sprintf
            "verified runs V, overruled collusions C, oracle quarantines OQ; \
             coalition {parse-check, campion} + oracle, %d seed(s) per cell"
            n)
       ~header:("defense" :: List.map (Printf.sprintf "rate %.2f") a3_rates)
       (List.map
          (fun (label, _, cells) ->
            label
            :: List.map
                 (fun (v, c, oq) -> Printf.sprintf "%d/%d C%-3d OQ%-2d" v n c oq)
                 cells)
          results));
  print_string
    (Cosynth.Report.table ~title:"trust-layer activity over the sweep"
       ~header:Cosynth.Metrics.trust_header
       (Cosynth.Metrics.trust_rows perf));
  Format.printf "  %a@." Cosynth.Metrics.pp_perf perf;
  match List.rev !violations with
  | [] -> Printf.printf "\n  A3: all invariants hold\n"
  | vs ->
      Printf.printf "\n  A3 GATE FAILED: %d violation(s)\n" (List.length vs);
      List.iter (fun v -> Printf.printf "  VIOLATION %s\n" v) vs;
      exit 1

(* ------------------------------------------------------------------ *)
(* D1: the durability gate — crash at every write point, recover       *)
(* ------------------------------------------------------------------ *)

let d1_tmp_dir () =
  let dir = Filename.temp_file "cosynth-d1" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  dir

let d1_rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

let d1_file_bytes path =
  if Sys.file_exists path then
    In_channel.with_open_bin path In_channel.input_all
  else "<absent>"

(* One scripted persistence surface. [d_prefix ~dir ~k] replays the first
   [k] scripted records into a fresh [dir] (k = d_script_len is the whole
   script); [d_recover] digests whatever survives on disk — it must be
   total; [d_resume] finishes an interrupted run the way the surface's
   real resume path would. [d_compacted] pins post-resume byte-identity
   for the surfaces that own a compactor. *)
type d1_kind = {
  d_name : string;
  d_script_len : int;
  d_prefix : dir:string -> k:int -> unit;
  d_recover : dir:string -> string;
  d_resume : dir:string -> unit;
  d_compacted : (dir:string -> string) option;
}

let d1_journal_kind n =
  let file dir = Filename.concat dir "journal.jsonl" in
  let payload s =
    Netcore.Json.Obj
      [ ("ok", Netcore.Json.Bool true); ("cost", Netcore.Json.Int (s * 7)) ]
  in
  let seeds = List.init n (fun i -> i + 1) in
  let record dir ss =
    let j = Exec.Checkpoint.open_ (file dir) in
    Fun.protect
      ~finally:(fun () -> Exec.Checkpoint.close j)
      (fun () -> List.iter (fun s -> Exec.Checkpoint.record j ~seed:s (payload s)) ss)
  in
  {
    d_name = "checkpoint journal";
    d_script_len = n;
    d_prefix = (fun ~dir ~k -> record dir (List.filteri (fun i _ -> i < k) seeds));
    d_recover =
      (fun ~dir ->
        String.concat ";"
          (List.map
             (fun (s, j) -> Printf.sprintf "%d=%s" s (Netcore.Json.to_string j))
             (Exec.Checkpoint.load (file dir))));
    d_resume =
      (fun ~dir ->
        let done_ = List.map fst (Exec.Checkpoint.load (file dir)) in
        let missing = List.filter (fun s -> not (List.mem s done_)) seeds in
        if missing <> [] then record dir missing);
    d_compacted =
      Some
        (fun ~dir ->
          ignore (Exec.Checkpoint.compact (file dir) : int * int);
          d1_file_bytes (file dir));
  }

let d1_ledger_kind n =
  let module T = Resilience.Trust in
  let file dir = Filename.concat dir "trust.jsonl" in
  let entry i =
    T.state_of
      (T.create T.default_config)
      ~counters:{ T.zero with T.cross_checks = i; T.agreements = i mod 2 }
      ~quorum:T.zero_quorum
  in
  let seeds = List.init n (fun i -> i + 1) in
  let record dir ss =
    let h = T.Ledger_store.open_ (file dir) in
    Fun.protect
      ~finally:(fun () -> T.Ledger_store.close h)
      (fun () -> List.iter (fun s -> T.Ledger_store.record h ~seed:s (entry s)) ss)
  in
  {
    d_name = "trust ledger";
    d_script_len = n;
    d_prefix = (fun ~dir ~k -> record dir (List.filteri (fun i _ -> i < k) seeds));
    d_recover =
      (fun ~dir ->
        match T.Ledger_store.load (file dir) with
        | None -> "<empty>"
        | Some e -> Netcore.Json.to_string (T.Ledger_store.entry_to_json e));
    d_resume =
      (* The ledger is last-write-wins per seed and its per-seed entries
         are deterministic, so a resume simply re-records every seed:
         survivors are overwritten with identical state and lost lines
         reappear — the merged load converges on the intact state. *)
      (fun ~dir -> record dir seeds);
    d_compacted = None;
  }

let d1_triage_kind n =
  let file dir = Filename.concat dir "triage.jsonl" in
  let row s = (Printf.sprintf "stage%02d" s, "Failure", s) in
  let seeds = List.init n (fun i -> i + 1) in
  let append dir s =
    let stage, ctor, count = row s in
    Resilience.Triage.append ~path:(file dir) ~seed:s [ (stage, ctor, count) ]
  in
  {
    d_name = "crash triage";
    d_script_len = n;
    d_prefix =
      (fun ~dir ~k -> List.iter (append dir) (List.filteri (fun i _ -> i < k) seeds));
    d_recover =
      (fun ~dir ->
        String.concat ";"
          (List.map
             (fun (r : Resilience.Triage.row) ->
               Printf.sprintf "%s/%s=%d@%d-%d" r.stage r.constructor r.count
                 r.first_seed r.last_seed)
             (Resilience.Triage.load (file dir))));
    d_resume =
      (fun ~dir ->
        let have =
          List.map
            (fun (r : Resilience.Triage.row) -> r.stage)
            (Resilience.Triage.load (file dir))
        in
        List.iter
          (fun s ->
            let stage, _, _ = row s in
            if not (List.mem stage have) then append dir s)
          seeds);
    d_compacted = None;
  }

(* Kill one surface at every write point of its scripted run. The valid
   recovery states are exactly the script prefixes (a torn trailing line
   fails the CRC and drops, so a crash can never land between records);
   after a fault-off resume the state must equal the intact run's, and a
   surface with a compactor must be byte-identical to it. Returns
   (write points, crash points with a clean prefix recovery, crash
   points whose resume converged). *)
let d1_drill ~violation kind =
  let n = kind.d_script_len in
  let in_fresh_dir f =
    let dir = d1_tmp_dir () in
    Fun.protect ~finally:(fun () -> d1_rm_rf dir) (fun () -> f dir)
  in
  let states =
    Array.init (n + 1) (fun k ->
        in_fresh_dir (fun dir ->
            kind.d_prefix ~dir ~k;
            kind.d_recover ~dir))
  in
  let intact_compacted =
    match kind.d_compacted with
    | None -> None
    | Some f ->
        Some
          (in_fresh_dir (fun dir ->
               kind.d_prefix ~dir ~k:n;
               f ~dir))
  in
  (* Count the schedule's write points with an all-zero-rate config
     installed: it injects nothing but counts every write, fsync and
     rename the script performs. *)
  let w =
    in_fresh_dir (fun dir ->
        Durable.Diskchaos.install (Durable.Diskchaos.make ~seed:0 ());
        Fun.protect
          ~finally:(fun () -> Durable.Diskchaos.uninstall ())
          (fun () ->
            kind.d_prefix ~dir ~k:n;
            (Durable.Diskchaos.stats ()).Durable.Diskchaos.ops))
  in
  let recovered = ref 0 and resumed = ref 0 in
  for i = 0 to w - 1 do
    in_fresh_dir (fun dir ->
        Fun.protect
          ~finally:(fun () -> Durable.Diskchaos.uninstall ())
          (fun () ->
            Durable.Diskchaos.install
              (Durable.Diskchaos.make ~crash_after:i ~seed:(1000 + i) ());
            (match kind.d_prefix ~dir ~k:n with
            | () ->
                violation
                  (Printf.sprintf
                     "%s: crash_after=%d: the script completed without crashing"
                     kind.d_name i)
            | exception Durable.Diskchaos.Crashed _ -> ());
            Durable.Diskchaos.uninstall ();
            let got = kind.d_recover ~dir in
            if Array.exists (String.equal got) states then incr recovered
            else
              violation
              (Printf.sprintf "%s: crash at write point %d recovered a non-prefix state: %s"
                kind.d_name i got);
            kind.d_resume ~dir;
            let final = kind.d_recover ~dir in
            if String.equal final states.(n) then incr resumed
            else
              violation
              (Printf.sprintf "%s: crash at write point %d: resume did not converge: %s"
                kind.d_name i final);
            match (kind.d_compacted, intact_compacted) with
            | Some f, Some want ->
                let got = f ~dir in
                if not (String.equal got want) then
                  violation
                    (Printf.sprintf
                       "%s: crash at write point %d: compacted bytes differ from \
                        the intact run's"
                       kind.d_name i)
            | _ -> ()))
  done;
  (w, !recovered, !resumed)

(* Corruption totality: over the wire bytes of a framed journal, truncate
   at every byte offset and flip one bit at every byte position. Reads
   must never raise, never decode a phantom record, and lose at most the
   lines the damaged byte touches (a flipped newline merges two). *)
let d1_corruption_sweep ~violation () =
  let dir = d1_tmp_dir () in
  Fun.protect
    ~finally:(fun () -> d1_rm_rf dir)
    (fun () ->
      let path = Filename.concat dir "sweep.jsonl" in
      let records =
        List.init 6 (fun i ->
            Netcore.Json.Obj
              [
                ("seed", Netcore.Json.Int (i + 1));
                ("note", Netcore.Json.String (Printf.sprintf "record-%d" (i + 1)));
              ])
      in
      let bytes =
        String.concat ""
          (List.map
             (fun j -> Durable.Store.frame (Netcore.Json.to_string j))
             records)
      in
      let intact = List.map Netcore.Json.to_string records in
      let read_mutant tag s =
        Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s);
        match Durable.Store.read path with
        | recs, _ -> Some (List.map Netcore.Json.to_string recs)
        | exception e ->
            violation
              (Printf.sprintf "corruption sweep: %s: read raised %s" tag
              (Printexc.to_string e));
            None
      in
      let len = String.length bytes in
      for off = 0 to len do
        match read_mutant (Printf.sprintf "truncation at %d" off)
                (String.sub bytes 0 off)
        with
        | None -> ()
        | Some got ->
            let rec is_prefix a b =
              match (a, b) with
              | [], _ -> true
              | x :: a', y :: b' when String.equal x y -> is_prefix a' b'
              | _ -> false
            in
            if not (is_prefix got intact) then
              violation
                (Printf.sprintf
                   "corruption sweep: truncation at %d decoded a non-prefix" off)
      done;
      Printf.printf
        "  truncation: %d offset(s) swept, every surviving decode a clean prefix\n"
        (len + 1);
      for p = 0 to len - 1 do
        let b = Bytes.of_string bytes in
        Bytes.set b p (Char.chr (Char.code (Bytes.get b p) lxor 1));
        match read_mutant (Printf.sprintf "bit flip at %d" p) (Bytes.to_string b)
        with
        | None -> ()
        | Some got ->
            if List.exists (fun g -> not (List.mem g intact)) got then
              violation
                (Printf.sprintf
                   "corruption sweep: bit flip at %d decoded a phantom record" p)
            else if List.length got < List.length intact - 2 then
              violation
                (Printf.sprintf "corruption sweep: bit flip at %d lost %d record(s)"
                   p
                   (List.length intact - List.length got))
      done;
      Printf.printf
        "  bit flips: %d position(s) swept, no exception, no phantom, <= 2 lines \
         lost each\n"
        len)

(* Atomic promotion: crash an atomic replace at each of its write points;
   the target must be either the old artifact or the new one (or still
   absent on first promotion) — never a torn hybrid — and a fault-off
   retry must converge. The corpus promoter and the admission-cap tooling
   both ride this exact path. *)
let d1_promotion ~violation () =
  let dir = d1_tmp_dir () in
  Fun.protect
    ~finally:(fun () ->
      Durable.Diskchaos.uninstall ();
      d1_rm_rf dir)
    (fun () ->
      let target = Filename.concat dir "promoted-parse-Failure.txt" in
      let old_content = "interface OLD\n" and new_content = "interface NEW\n" in
      Durable.Diskchaos.install (Durable.Diskchaos.make ~seed:0 ());
      if not (Durable.Store.write_atomic target new_content) then
        violation "promotion: fault-free write_atomic failed";
      let w = (Durable.Diskchaos.stats ()).Durable.Diskchaos.ops in
      Durable.Diskchaos.uninstall ();
      Printf.printf "  corpus promotion: %d write point(s) per atomic replace\n" w;
      List.iter
        (fun pre_existing ->
          for i = 0 to w - 1 do
            if Sys.file_exists target then Sys.remove target;
            if Sys.file_exists (target ^ ".tmp") then Sys.remove (target ^ ".tmp");
            if pre_existing then
              Out_channel.with_open_bin target (fun oc ->
                  Out_channel.output_string oc old_content);
            Durable.Diskchaos.install
              (Durable.Diskchaos.make ~crash_after:i ~seed:(2000 + i) ());
            (match Durable.Store.write_atomic target new_content with
            | ok ->
                violation
                  (Printf.sprintf
                     "promotion: crash_after=%d completed (%b) without crashing" i
                     ok)
            | exception Durable.Diskchaos.Crashed _ -> ());
            Durable.Diskchaos.uninstall ();
            let got = d1_file_bytes target in
            let valid =
              if pre_existing then
                String.equal got old_content || String.equal got new_content
              else String.equal got "<absent>" || String.equal got new_content
            in
            if not valid then
              violation
                (Printf.sprintf
                   "promotion: crash at write point %d (old %s) left a torn \
                    target: %S"
                   i
                   (if pre_existing then "present" else "absent")
                   got);
            if not (Durable.Store.write_atomic target new_content) then
              violation
                (Printf.sprintf
                   "promotion: fault-off retry after crash point %d failed" i)
            else if not (String.equal (d1_file_bytes target) new_content) then
              violation
                (Printf.sprintf
                   "promotion: retry after crash point %d left stale content" i)
          done)
        [ true; false ];
      Printf.printf
        "  promotion crashes: %d point(s) x {old present, old absent}: target \
         always whole, retry always converged\n"
        w)

(* Fault-off identity: a run with the zero-rate config installed must
   leave byte-identical files to one with nothing installed — arming the
   chaos layer without faults costs determinism nothing. *)
let d1_identity ~violation kind =
  let dir_bytes dir =
    String.concat ""
      (List.map
         (fun f -> f ^ "=" ^ d1_file_bytes (Filename.concat dir f))
         (List.sort compare (Array.to_list (Sys.readdir dir))))
  in
  let run armed =
    let dir = d1_tmp_dir () in
    Fun.protect
      ~finally:(fun () ->
        Durable.Diskchaos.uninstall ();
        d1_rm_rf dir)
      (fun () ->
        if armed then
          Durable.Diskchaos.install (Durable.Diskchaos.make ~seed:7 ());
        kind.d_prefix ~dir ~k:kind.d_script_len;
        Durable.Diskchaos.uninstall ();
        dir_bytes dir)
  in
  if not (String.equal (run false) (run true)) then
    violation
      (Printf.sprintf "%s: zero-rate armed run not byte-identical to an unarmed one"
         kind.d_name)

let table_d1 () =
  section "D1 — durability gate: crash at every write point, recover";
  let violations = ref [] in
  let violation s = violations := s :: !violations in
  let n = if smoke then 3 else 6 in
  let kinds = [ d1_journal_kind n; d1_ledger_kind n; d1_triage_kind n ] in
  let rows =
    List.map
      (fun kind ->
        let w, recovered, resumed = d1_drill ~violation kind in
        d1_identity ~violation kind;
        [
          kind.d_name;
          string_of_int kind.d_script_len;
          string_of_int w;
          Printf.sprintf "%d/%d" recovered w;
          Printf.sprintf "%d/%d" resumed w;
        ])
      kinds
  in
  print_string
    (Cosynth.Report.table
       ~title:
         "scripted records, write points W, crash points recovered to a clean \
          prefix, fault-off resumes converged"
       ~header:[ "store"; "records"; "W"; "prefix recovery"; "resume" ]
       rows);
  d1_promotion ~violation ();
  d1_corruption_sweep ~violation ();
  Printf.printf "  corrupt lines skipped and counted so far: %d\n"
    (Durable.Store.corrupt_seen ());
  match List.rev !violations with
  | [] -> Printf.printf "\n  D1: every crash recovered, every corruption contained\n"
  | vs ->
      Printf.printf "\n  D1 GATE FAILED: %d violation(s)\n" (List.length vs);
      List.iter (fun v -> Printf.printf "  VIOLATION %s\n" v) vs;
      exit 1

(* The gates, in precedence order: the first whose flag is given runs its
   tables alone; with none, the full harness runs.
   - C1 + C2 (`make chaos`): the VPP loops under injected verifier faults,
     then supervised sweeps under worker-domain loss, at full seed count.
   - F1 (`make fuzz`): corpus replay, the planted-bug canary, then seeded
     mutations per dialect behind the Guard firewall.
   - A1 (`make adversary`): leverage vs Byzantine-LLM rate x mode, the
     rate-0 pin, certificates and the loop-level fuzzers.
   - A2 (`make adversary-verifier-smoke`): lying verifiers vs the trust
     cross-check ledger.
   - A3 (`make adversary-collusion-smoke`): a verifier coalition, oracle
     included, vs the quorum audit layer.
   - S1 (`make serve-bench`): a warm in-process daemon vs cold per-job
     startup.
   - S2 (`make serve-overload-smoke`): the hardened daemon under a
     2x-capacity burst: shedding, deadlines and drain.
   - D1 (`make durable`): every persistence surface killed at every write
     point and recovered, plus CRC truncation and bit-flip sweeps.
   Every gate exits nonzero on any violation. *)
let gates =
  let budget name = name ^ if smoke then " (smoke budget)" else " (full budget)" in
  [
    ("--fuzz", budget "fuzz gate", [ table_f1 ]);
    ("--adversary", budget "adversary gate", [ table_a1 ]);
    ("--adversary-verifier", budget "adversary verifier gate", [ table_a2 ]);
    ("--adversary-collusion", budget "adversary collusion gate", [ table_a3 ]);
    ("--serve", budget "serve gate", [ table_s1 ]);
    ("--serve-overload", budget "serve overload gate", [ table_s2 ]);
    ("--durable", budget "durability gate", [ table_d1 ]);
    ("--chaos", "chaos sweep only (full seeds)", [ table_c1; table_c2 ]);
  ]

let () =
  let gate_flags = List.map (fun (flag, _, _) -> flag) gates in
  List.iter
    (fun a ->
      if not (List.mem a ("--smoke" :: "--resume" :: gate_flags)) then begin
        if a = "--journal" then Printf.eprintf "error: --journal requires a DIR\n"
        else Printf.eprintf "error: unknown argument %S\n" a;
        Printf.eprintf "usage: main.exe [--smoke] [--journal DIR [--resume]] [%s]\n%!"
          (String.concat " | " gate_flags);
        exit 2
      end)
    flags;
  if resume && journal_dir = None then begin
    Printf.eprintf "error: --resume requires --journal DIR\n%!";
    exit 2
  end;
  Option.iter (fun dir -> if not (Sys.file_exists dir) then Sys.mkdir dir 0o755) journal_dir;
  let gate = List.find_opt (fun (flag, _, _) -> List.mem flag flags) gates in
  let label, tables =
    match gate with
    | Some (_, label, tables) -> (label, tables)
    | None ->
        ( (if smoke then "smoke (1 seed per experiment)" else "full"),
          [
            table_t1; table_t2; table_l1; figure_f4; table_t3; table_l2; table_g1;
            table_ab1a; table_ab1b; table_ab1c; table_e1; table_e2; table_e3;
            table_c1; table_c2; table_s1; table_s2;
          ] )
  in
  Printf.printf
    "CoSynth benchmark harness — reproduction of 'What do LLMs need to Synthesize \
     Correct Router Configurations?' (HotNets 2023)\n";
  Printf.printf "mode: %s | worker pool: %d domain(s) (COSYNTH_POOL_SIZE to override)\n"
    label (Exec.Pool.size pool);
  List.iter (fun table -> table ()) tables;
  if Option.is_none gate then begin
    if smoke then
      Printf.printf "\n(smoke mode: skipping the Bechamel performance pass)\n"
    else run_perf ();
    let ps = Exec.Pool.stats pool in
    let ms = Exec.Memo.stats () in
    Printf.printf
      "\npool: %d domain(s), %d jobs, %.1fs busy over %.1fs wall (utilization %.0f%%), \
       %d worker restart(s)\n"
      ps.Exec.Pool.domains ps.Exec.Pool.jobs_completed ps.Exec.Pool.busy_s
      ps.Exec.Pool.wall_s
      (100. *. Exec.Pool.utilization ps)
      ps.Exec.Pool.restarts;
    Printf.printf "memo: %d hits / %d misses since last reset, %d entries cached\n"
      ms.Exec.Memo.hits ms.Exec.Memo.misses ms.Exec.Memo.entries
  end;
  Exec.Pool.shutdown pool;
  Printf.printf "\nDone.\n"
