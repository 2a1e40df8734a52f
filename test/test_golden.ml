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

let matrix =
  lazy
    (List.concat_map
       (fun m ->
         List.map (translation m) (List.init 8 succ)
         @ List.map (incremental m) (List.init 8 succ)
         @ List.map (no_transit m) (List.init 4 succ))
       modes)

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

let test_digests () =
  let actual = List.map snd (Lazy.force matrix) in
  let expected = read_lines "golden.digests" in
  Alcotest.(check int) "row count" (List.length expected) (List.length actual);
  List.iter2 (fun e a -> Alcotest.(check string) "golden row" e a) expected actual

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

let () =
  Alcotest.run "golden"
    [
      ( "transcripts",
        [
          Alcotest.test_case "digests match the committed matrix" `Quick test_digests;
          Alcotest.test_case "matrix reaches every annotation path" `Quick test_coverage;
        ] );
    ]
