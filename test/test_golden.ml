(* Golden transcripts: a fixed matrix of VPP loops whose transcripts and
   final configurations are pinned by digest in [golden.digests].

   The other byte-identity tests compare runs within one revision (rate 0
   against plain, pooled against sequential); a change that shifts plain
   and hardened runs alike passes them. This test compares against the
   committed digests instead, so any drift in any of the nine modes fails.
   The modes between them reach every annotation path of the driver:
   cross-checks, quarantine, probation, quorum audits, the oracle's
   quarantine and probation, degraded stages, the watchdog, the
   oscillation detector and the no-transit global phase.

   Each row holds the MD5 of the transcript's JSON, the result booleans,
   and the MD5 of the final text (translation) or of the printed configs
   (no-transit, incremental). *)

module D = Cosynth.Driver

let md5 s = Digest.to_hex (Digest.string s)
let b = function true -> "1" | false -> "0"

let chaos =
  Resilience.Runtime.config
    ~chaos:
      (Resilience.Chaos.make ~crash_rate:0.08 ~timeout_rate:0.08 ~flake_rate:0.08
         ~truncate_rate:0.08 ~seed:99 ())
    ()

let lies =
  Adversary.Spec.make
    ~llm:(Adversary.Llm.make ~truncated:0.1 ~stale:0.1 ~seed:5 ())
    ~findings:(Adversary.Findings.make ~dropped:0.15 ~duplicated:0.1 ~seed:5 ())
    ~verifier:(Adversary.Verifier.make ~false_negative:0.5 ~seed:5 ())
    ()

let coalition =
  Adversary.Spec.make
    ~collusion:
      (Adversary.Collusion.make
         ~members:
           Resilience.Verifier.[ Parse_check; Campion; Route_policies; Bgp_sim ]
         ~oracle:true ~rate:0.35 ~seed:9980 ())
    ()

let garbling =
  Adversary.Llm.make ~truncated:0.2 ~wrong_dialect:0.2 ~seed:11 ()

let garbled_findings = Adversary.Findings.make ~garbled:0.3 ~misattributed:0.1 ~seed:11 ()

type mode = {
  name : string;
  resilience : Resilience.Runtime.config option;
  adversary : Adversary.Spec.t option;
  trust : bool;
}

let mode ?resilience ?adversary ?(trust = false) name = { name; resilience; adversary; trust }

let modes =
  [
    mode "plain";
    mode "chaos" ~resilience:chaos;
    mode "lies" ~adversary:lies;
    mode "lies+trust" ~adversary:lies ~trust:true;
    mode "coalition+trust" ~adversary:coalition ~trust:true;
    mode "chaos+lies+trust" ~resilience:chaos ~adversary:lies ~trust:true;
    mode "garbling"
      ~adversary:(Adversary.Spec.make ~llm:garbling ~findings:garbled_findings ());
    mode "garbling+lies+coalition+trust" ~trust:true
      ~adversary:
        (Adversary.Spec.make ~llm:garbling ~findings:garbled_findings
           ~verifier:
             (Adversary.Verifier.make ~false_positive:0.3 ~mutated:0.3 ~adaptive:true
                ~seed:13 ())
           ~collusion:
             (Adversary.Collusion.make
                ~members:Resilience.Verifier.[ Topology; Route_policies ]
                ~oracle:true ~rate:0.5 ~seed:13 ())
           ());
    mode "stale+partial"
      ~adversary:
        (Adversary.Spec.make
           ~llm:(Adversary.Llm.make ~stale:0.4 ~partial_fix:0.4 ~seed:17 ())
           ~osc_repeat:2 ());
  ]

let trust_of m = if m.trust then Some Resilience.Trust.default_config else None

let print_configs configs =
  String.concat "\n" (List.map (fun (name, ir) -> name ^ "\n" ^ Cisco.Printer.print ir) configs)

let row ~use_case m seed transcript bools output =
  Printf.sprintf "%s %s %d %s %s %s" use_case m.name seed
    (md5 (Netcore.Json.to_string (D.transcript_to_json transcript)))
    (String.concat "" (List.map b bools))
    (md5 output)

let translation m seed =
  let r =
    D.run_translation ~seed ?resilience:m.resilience ?adversary:m.adversary
      ?trust:(trust_of m) ~cisco_text:Cisco.Samples.border_router ()
  in
  ( r.D.transcript,
    row ~use_case:"translation" m seed r.D.transcript [ r.D.verified ] r.D.final_text )

let incremental m seed =
  let r =
    D.run_incremental ~seed ?resilience:m.resilience ?adversary:m.adversary
      ?trust:(trust_of m) ~routers:6 ()
  in
  ( r.D.inc_transcript,
    row ~use_case:"incremental" m seed r.D.inc_transcript
      [ r.D.specs_hold; r.D.global_ok; r.D.interference_caught ]
      (Cisco.Printer.print r.D.hub_config) )

(* Seeds 3 and 4 force a crossed policy attachment on the hub: it passes
   every local check, so the global phase's counterexample loop runs. *)
let crossed =
  [ Llmsim.Fault.make Llmsim.Error_class.Crossed_policy_attachment Llmsim.Fault.Whole_config ]

let no_transit m seed =
  let r =
    D.run_no_transit ~seed ~final_check:D.Both
      ~force_hub_faults:(if seed >= 3 then crossed else [])
      ?resilience:m.resilience ?adversary:m.adversary ?trust:(trust_of m) ~routers:7 ()
  in
  ( r.D.transcript,
    row ~use_case:"no-transit" m seed r.D.transcript
      (r.D.global_ok :: List.map snd r.D.per_router_verified)
      (print_configs r.D.configs ^ String.concat "\n" r.D.global_violations) )

let run_matrix () =
  List.concat_map
    (fun m ->
      List.map (translation m) (List.init 8 succ)
      @ List.map (incremental m) (List.init 8 succ)
      @ List.map (no_transit m) (List.init 4 succ))
    modes

(* The memo tables live for the process, so a run can start cold or warm.
   [matrix] is the cold run; the warm test runs the matrix again after it,
   with every table still filled. Both must give the committed rows. *)
let matrix =
  lazy
    (Exec.Memo.reset ();
     run_matrix ())

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

let check_rows rows =
  let actual = List.map snd rows in
  let expected = read_lines "golden.digests" in
  Alcotest.(check int) "row count" (List.length expected) (List.length actual);
  List.iter2 (fun e a -> Alcotest.(check string) "golden row" e a) expected actual

let test_digests () = check_rows (Lazy.force matrix)

let test_warm_digests () =
  ignore (Lazy.force matrix);
  check_rows (run_matrix ())

(* The matrix is only a guard if it reaches the paths a refactor can
   break: every transcript annotation the driver emits must appear. *)
let test_coverage () =
  let notes =
    List.concat_map
      (fun (t, _) -> List.map (fun (e : D.event) -> e.D.note) t.D.events)
      (Lazy.force matrix)
  in
  List.iter
    (fun note ->
      if not (List.mem note notes) then Alcotest.failf "no transcript reaches %S" note)
    [
      "degraded";
      "cross-check";
      "quarantine";
      "probation";
      "quorum";
      "oracle-quarantine";
      "oracle-probation";
      "watchdog";
      "oscillation";
      "global";
    ]

(* Rendered drafts: every single-fault draft of a fixed set of artifacts,
   and every initial draft [Chat.start] makes for seeds 0-199, pinned by
   digest in [render.digests]. The transcripts above reach only the drafts
   their loops happen to visit; these rows pin the printers and every text
   fault on their own. Each chat's live faults are also rendered reversed,
   since text faults do not commute. *)

let render_artifacts =
  lazy
    (let cisco text = fst (Cisco.Parser.parse text) in
     let hub n =
       let star = Netcore.Star.make ~routers:n in
       (List.find
          (fun (t : Cosynth.Modularizer.router_task) ->
            t.Cosynth.Modularizer.router = star.Netcore.Star.hub)
          (Cosynth.Modularizer.plan star))
         .Cosynth.Modularizer.correct
     in
     let border = cisco Cisco.Samples.border_router
     and edge = cisco Cisco.Samples.edge_router in
     let junos = Juniper.Translate.of_cisco_ir in
     let open Llmsim.Fault in
     [
       ("border", Cisco_cfg, border);
       ("border", Junos_cfg, junos border);
       ("edge", Cisco_cfg, edge);
       ("edge", Junos_cfg, junos edge);
     ]
     @ List.map (fun n -> (Printf.sprintf "hub%d" n, Cisco_cfg, hub n)) [ 3; 7; 15; 31 ]
     @ [ ("hub7", Junos_cfg, junos (hub 7)) ])

let dialect_name = function Llmsim.Fault.Cisco_cfg -> "cisco" | Junos_cfg -> "junos"

(* Parses: the syntax stage's answer (IR, then each diagnostic's severity,
   line and message, parse and lint alike) on every draft of the render
   matrix and on seeded mutants of the samples and the 15-router hub in both
   dialects, pinned by digest in [parse.digests]. The IR is digested through
   [Marshal] without sharing, so the digest sees its structure only. *)

let parse_digest dialect text =
  let ir, diags =
    Batfish.Parse_check.check
      (match dialect with
      | Llmsim.Fault.Cisco_cfg -> Batfish.Parse_check.Cisco_ios
      | Junos_cfg -> Junos)
      text
  in
  let diag (d : Netcore.Diag.t) =
    Printf.sprintf "%c %d %s"
      (match d.severity with Warning -> 'w' | Error -> 'e')
      d.line d.message
  in
  md5 (String.concat "\n" (Marshal.to_string ir [ Marshal.No_sharing ] :: List.map diag diags))

let mutant_rows () =
  let corpus dialect =
    List.map
      (fun name ->
        let _, _, ir = List.find (fun (n, _, _) -> n = name) (Lazy.force render_artifacts) in
        Llmsim.Fault.render dialect ir [])
      [ "border"; "edge"; "hub15" ]
  in
  List.concat_map
    (fun dialect ->
      let corpus = corpus dialect in
      List.concat_map
        (fun seed ->
          List.map
            (fun round ->
              Printf.sprintf "mutant %s seed %d round %d %s" (dialect_name dialect) seed
                round
                (parse_digest dialect (Fuzz.Mutator.mutant ~seed ~round ~corpus)))
            [ 0; 1 ])
        (List.init 150 Fun.id))
    Llmsim.Fault.[ Cisco_cfg; Junos_cfg ]

(* One pass over the matrix gives both tables' rows: the MD5 of each draft
   and of its parse. Chat seeds repeat drafts, so each distinct text is
   parsed once. *)
let draft_rows =
  lazy
    (let renders = ref [] and parses = ref [] in
     let parsed = Hashtbl.create 4096 in
     let draft name dialect ir what faults =
       let label = Printf.sprintf "%s %s %s" name (dialect_name dialect) what in
       let text = Llmsim.Fault.render dialect ir faults in
       let digest = md5 text in
       let parse =
         match Hashtbl.find_opt parsed digest with
         | Some d -> d
         | None ->
             let d = parse_digest dialect text in
             Hashtbl.add parsed digest d;
             d
       in
       renders := Printf.sprintf "%s %s" label digest :: !renders;
       parses := Printf.sprintf "%s %s" label parse :: !parses
     in
     List.iter
       (fun (name, dialect, ir) ->
         let draft = draft name dialect ir in
         draft "clean" [];
         List.iter
           (fun f -> draft ("fault " ^ Llmsim.Fault.to_string f) [ f ])
           (Llmsim.Fault.opportunities dialect ir);
         List.iter
           (fun (tag, iips) ->
             for seed = 0 to 199 do
               let live =
                 Llmsim.Chat.live_faults (Llmsim.Chat.start ~seed ~iips dialect ~correct:ir)
               in
               let what order = Printf.sprintf "chat %s seed %d %s" tag seed order in
               draft (what "fwd") live;
               draft (what "rev") (List.rev live)
             done)
           [ ("no-iips", []); ("iips", Cosynth.Iip.ids Cosynth.Iip.defaults) ])
       (Lazy.force render_artifacts);
     (List.rev !renders, List.rev !parses @ mutant_rows ()))

let test_render_digests () =
  let expected = read_lines "render.digests" in
  let actual = fst (Lazy.force draft_rows) in
  Alcotest.(check int) "row count" (List.length expected) (List.length actual);
  List.iter2 (fun e a -> Alcotest.(check string) "render row" e a) expected actual

let test_parse_digests () =
  let expected = read_lines "parse.digests" in
  let actual = snd (Lazy.force draft_rows) in
  Alcotest.(check int) "row count" (List.length expected) (List.length actual);
  List.iter2 (fun e a -> Alcotest.(check string) "parse row" e a) expected actual

let () =
  Alcotest.run "golden"
    [
      ( "transcripts",
        [
          Alcotest.test_case "digests match the committed matrix" `Quick test_digests;
          Alcotest.test_case "warm rerun matches the committed matrix" `Quick
            test_warm_digests;
          Alcotest.test_case "matrix reaches every annotation path" `Quick test_coverage;
        ] );
      ( "render",
        [ Alcotest.test_case "drafts match the committed digests" `Quick test_render_digests ] );
      ( "parse",
        [ Alcotest.test_case "parses match the committed digests" `Quick test_parse_digests ] );
    ]
