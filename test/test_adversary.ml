(* Tests for the adversary layer (lib/adversary) and the driver-loop
   hardening it drives: the oscillation detector on a planted A/B/A cycle,
   the progress watchdog at exactly K rounds, per-mode seed determinism of
   the Byzantine wrappers, the rate-0 identity, and a qcheck that the
   hardened loop terminates with a certificate for arbitrary rates in
   [0, 1]. *)

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int
let string_t = Alcotest.string

(* ------------------------------------------------------------------ *)
(* Watch: oscillation detector                                         *)
(* ------------------------------------------------------------------ *)

let test_osc_period1 () =
  let o = Adversary.Watch.osc ~repeat_threshold:3 () in
  check bool_t "first A" true (Adversary.Watch.observe o "A" = None);
  check bool_t "second A" true (Adversary.Watch.observe o "A" = None);
  (* Third identical draft completes a period-1 cycle. *)
  check bool_t "third A fires period 1" true (Adversary.Watch.observe o "A" = Some 1);
  (* Detection cleared the history: the same episode is not re-reported. *)
  check bool_t "re-armed" true (Adversary.Watch.observe o "A" = None)

let test_osc_planted_aba () =
  let o = Adversary.Watch.osc ~repeat_threshold:3 () in
  let feed s = Adversary.Watch.observe o s in
  (* A planted A/B/A/B alternation: two full periods complete the cycle. *)
  check bool_t "A" true (feed "draft A" = None);
  check bool_t "B" true (feed "draft B" = None);
  check bool_t "A again" true (feed "draft A" = None);
  check int_t "B again fires period 2" 2
    (Option.value ~default:0 (feed "draft B"));
  (* Converging drafts never fire. *)
  let o2 = Adversary.Watch.osc ~repeat_threshold:3 () in
  List.iteri
    (fun i s ->
      if Adversary.Watch.observe o2 s <> None then
        Alcotest.failf "distinct draft %d reported as a cycle" i)
    [ "v1"; "v2"; "v3"; "v4"; "v5" ]

let test_osc_window_period3 () =
  (* An A/B/C/A revisit at distance 3: one sighting suffices within the
     window — a deterministic loop that reproduced a draft verbatim will
     reproduce what followed it too. *)
  let o = Adversary.Watch.osc ~repeat_threshold:3 () in
  let feed s = Adversary.Watch.observe o s in
  check bool_t "A" true (feed "draft A" = None);
  check bool_t "B" true (feed "draft B" = None);
  check bool_t "C" true (feed "draft C" = None);
  check int_t "revisiting A fires period 3" 3
    (Option.value ~default:0 (feed "draft A"));
  (* Detection cleared the history: the detector re-arms. *)
  check bool_t "re-armed" true (feed "draft B" = None)

let test_osc_window_bound () =
  (* A revisit farther back than the window is not reported — the bound is
     what keeps a long, genuinely-progressing conversation from tripping
     on a coincidental digest reappearance. *)
  let o = Adversary.Watch.osc ~window:4 ~repeat_threshold:3 () in
  let feed s = Adversary.Watch.observe o s in
  List.iter (fun s -> ignore (feed s)) [ "A"; "B"; "C"; "D"; "E" ];
  check bool_t "revisit at distance 5 > window 4 ignored" true (feed "A" = None);
  (* window < 3 disables the long-period check entirely, leaving exactly
     the period-1/2 detector. *)
  let o2 = Adversary.Watch.osc ~window:0 ~repeat_threshold:3 () in
  List.iter (fun s -> ignore (Adversary.Watch.observe o2 s)) [ "A"; "B"; "C" ];
  check bool_t "window 0 never fires on a distance-3 revisit" true
    (Adversary.Watch.observe o2 "A" = None)

(* ------------------------------------------------------------------ *)
(* Watch: progress watchdog                                            *)
(* ------------------------------------------------------------------ *)

let test_watchdog_fires_at_exactly_k () =
  let k = 5 in
  let p = Adversary.Watch.progress ~rounds:k in
  (* First observation of the stage counts as progress. *)
  check bool_t "round 0 is progress" false
    (Adversary.Watch.step p ~stage:"syntax" ~findings:4);
  (* K - 1 flat rounds: armed but silent. *)
  for i = 1 to k - 1 do
    if Adversary.Watch.step p ~stage:"syntax" ~findings:4 then
      Alcotest.failf "watchdog fired early at flat round %d (limit %d)" i k
  done;
  (* The K-th consecutive non-improving round fires. *)
  check bool_t "fires at exactly K" true
    (Adversary.Watch.step p ~stage:"syntax" ~findings:4)

let test_watchdog_reset_on_progress () =
  let k = 4 in
  let p = Adversary.Watch.progress ~rounds:k in
  ignore (Adversary.Watch.step p ~stage:"syntax" ~findings:6);
  for _ = 1 to k - 1 do
    ignore (Adversary.Watch.step p ~stage:"syntax" ~findings:6)
  done;
  (* A shrinking finding set resets the streak... *)
  check bool_t "improvement is progress" false
    (Adversary.Watch.step p ~stage:"syntax" ~findings:5);
  (* ...so the next K - 1 flat rounds stay silent again. *)
  for i = 1 to k - 1 do
    if Adversary.Watch.step p ~stage:"syntax" ~findings:5 then
      Alcotest.failf "watchdog fired %d round(s) after progress (limit %d)" i k
  done;
  check bool_t "then fires" true (Adversary.Watch.step p ~stage:"syntax" ~findings:5)

(* ------------------------------------------------------------------ *)
(* Per-mode seed determinism                                           *)
(* ------------------------------------------------------------------ *)

let translate ?adversary seed =
  (Cosynth.Driver.run_translation ~seed ?adversary
     ~cisco_text:Cisco.Samples.border_router ())
    .Cosynth.Driver.transcript

let transcript_fingerprint t =
  Netcore.Json.to_string (Cosynth.Driver.transcript_to_json t)

let test_llm_modes_deterministic () =
  List.iter
    (fun mode ->
      let spec =
        Adversary.Spec.make
          ~llm:(Adversary.Llm.with_rate (Adversary.Llm.make ~seed:9 ()) mode 0.5)
          ()
      in
      check string_t
        (Printf.sprintf "llm mode %s reproducible in seed"
           (Adversary.Llm.mode_name mode))
        (transcript_fingerprint (translate ~adversary:spec 31))
        (transcript_fingerprint (translate ~adversary:spec 31)))
    Adversary.Llm.all_modes

let test_findings_modes_deterministic () =
  List.iter
    (fun mode ->
      let spec =
        Adversary.Spec.make
          ~findings:
            (Adversary.Findings.with_rate (Adversary.Findings.make ~seed:9 ()) mode 0.5)
          ()
      in
      check string_t
        (Printf.sprintf "findings mode %s reproducible in seed"
           (Adversary.Findings.mode_name mode))
        (transcript_fingerprint (translate ~adversary:spec 31))
        (transcript_fingerprint (translate ~adversary:spec 31)))
    Adversary.Findings.all_modes

let test_modes_distinct_streams () =
  (* Different modes at the same seed draw from disjoint streams, so they
     corrupt different rounds — the transcripts must not all coincide. *)
  let prints =
    List.map
      (fun mode ->
        let spec =
          Adversary.Spec.make
            ~llm:(Adversary.Llm.with_rate (Adversary.Llm.make ~seed:9 ()) mode 0.6)
            ()
        in
        transcript_fingerprint (translate ~adversary:spec 31))
      Adversary.Llm.all_modes
  in
  check bool_t "modes diverge" true (List.length (List.sort_uniq compare prints) > 1)

(* ------------------------------------------------------------------ *)
(* Rate-0 identity and certificates                                    *)
(* ------------------------------------------------------------------ *)

let test_rate0_identity () =
  List.iter
    (fun seed ->
      let plain = translate seed in
      let zero = translate ~adversary:Adversary.Spec.none seed in
      check string_t
        (Printf.sprintf "rate-0 JSON identical (seed %d)" seed)
        (transcript_fingerprint plain) (transcript_fingerprint zero);
      check string_t
        (Printf.sprintf "rate-0 markdown identical (seed %d)" seed)
        (Cosynth.Driver.transcript_to_markdown ~title:"t" plain)
        (Cosynth.Driver.transcript_to_markdown ~title:"t" zero);
      check bool_t "plain run carries no certificate" true
        (plain.Cosynth.Driver.certificate = None))
    [ 1; 5; 42 ]

(* The sweep journal's record: every summary field and the certificate
   survive [outcome_to_json]/[outcome_of_json], events up to one
   placeholder per degraded round, and the re-encoded line is the
   original byte for byte. *)
let transcript ?(events = []) ?certificate ~auto ~human () =
  {
    Cosynth.Driver.events;
    human_prompts = human;
    auto_prompts = auto;
    converged = certificate = Some Cosynth.Driver.Converged;
    rounds = 4;
    certificate;
  }

let decode_json text =
  match Netcore.Json.of_string text with
  | Ok j -> Cosynth.Driver.outcome_of_json j
  | Error e -> Alcotest.failf "unparsable test record %s: %s" text e

let test_outcome_roundtrip () =
  let module D = Cosynth.Driver in
  let ev origin = { D.origin; prompt = "p"; note = "n" } in
  let line o = Netcore.Json.to_string (D.outcome_to_json o) in
  List.iter
    (fun o ->
      match D.outcome_of_json (D.outcome_to_json o) with
      | None -> Alcotest.failf "record does not decode: %s" (line o)
      | Some o' -> (
          check string_t "re-encoded line" (line o) (line o');
          match (o, o') with
          | Exec.Supervisor.Completed t, Exec.Supervisor.Completed t' ->
              check int_t "auto" t.D.auto_prompts t'.D.auto_prompts;
              check int_t "human" t.D.human_prompts t'.D.human_prompts;
              check bool_t "converged" t.D.converged t'.D.converged;
              check int_t "rounds" t.D.rounds t'.D.rounds;
              check int_t "degraded rounds" (D.degraded_rounds t) (D.degraded_rounds t');
              check bool_t "certificate" true (t.D.certificate = t'.D.certificate)
          | Exec.Supervisor.Abandoned _, Exec.Supervisor.Abandoned _ ->
              check bool_t "abandoned record" true (o = o')
          | _ -> Alcotest.failf "record changed kind: %s" (line o)))
    [
      Exec.Supervisor.Completed (transcript ~auto:3 ~human:1 ());
      Exec.Supervisor.Completed (transcript ~certificate:D.Converged ~auto:9 ~human:2 ());
      Exec.Supervisor.Completed
        (transcript ~certificate:(D.Stalled_out "prompt budget exhausted") ~auto:30
           ~human:10 ());
      Exec.Supervisor.Completed
        (transcript
           ~events:[ ev D.Auto; ev D.Degraded; ev D.Human; ev D.Degraded; ev D.Degraded ]
           ~certificate:(D.Oscillating 2) ~auto:5 ~human:2 ());
      Exec.Supervisor.Abandoned { attempts = 1; reason = "Failure(\"boom\")" };
    ];
  (* Older codecs do not decode, so a resumed sweep re-runs those seeds:
     the pre-outcome adversary line, a bench transcript line and C1's
     raised-run null. *)
  let t = transcript ~certificate:D.Converged ~auto:9 ~human:2 () in
  List.iter
    (fun (what, json) ->
      check bool_t (what ^ " decodes to None") true (D.outcome_of_json json = None))
    [
      ( "adversary {ok,t} line",
        Netcore.Json.Obj [ ("ok", Netcore.Json.Bool true); ("t", D.transcript_to_json t) ] );
      ("bare transcript line", D.transcript_to_json t);
      ("null record", Netcore.Json.Null);
    ]

(* The run contract holds on decoded records exactly as on fresh runs. *)
let test_run_contract () =
  let module D = Cosynth.Driver in
  let decoded text =
    match decode_json text with
    | Some (Exec.Supervisor.Completed t) -> t
    | _ -> Alcotest.failf "not a completed record: %s" text
  in
  let overspent =
    decoded {|{"ok":true,"auto":999,"human":0,"converged":true,"rounds":5,"degraded":0}|}
  in
  check int_t "prompts" 999 (D.prompts overspent);
  check (Alcotest.list string_t) "999 prompts over budget 400"
    [ "spent 999 prompts (budget 400)" ]
    (D.run_violations ~budget:400 ~hardened:false overspent);
  check (Alcotest.list string_t) "within a 999 budget" []
    (D.run_violations ~budget:999 ~hardened:false overspent);
  check (Alcotest.list string_t) "hardened record without a certificate"
    [ "hardened run carries no convergence certificate" ]
    (D.run_violations ~budget:999 ~hardened:true overspent);
  let stalled =
    decoded
      {|{"ok":true,"auto":30,"human":10,"converged":false,"rounds":9,"degraded":0,"certificate":{"kind":"stalled","reason":"watchdog"}}|}
  in
  check bool_t "stalled out" true (D.stalled_out stalled);
  check bool_t "overspent record is not stalled out" false (D.stalled_out overspent);
  check (Alcotest.list string_t) "rate-0 record with a certificate"
    [ "rate-0 run carries a certificate" ]
    (D.run_violations ~budget:40 ~hardened:false stalled);
  check (Alcotest.list string_t) "hardened record keeps the contract" []
    (D.run_violations ~budget:40 ~hardened:true stalled)

let test_hardened_run_certified () =
  let spec =
    Adversary.Spec.make
      ~llm:(Adversary.Llm.make ~truncated:0.4 ~seed:3 ())
      ~findings:(Adversary.Findings.make ~garbled:0.3 ~seed:3 ())
      ()
  in
  List.iter
    (fun seed ->
      let t = translate ~adversary:spec seed in
      match t.Cosynth.Driver.certificate with
      | Some _ -> ()
      | None -> Alcotest.failf "hardened run (seed %d) has no certificate" seed)
    [ 1; 2; 3; 4; 5 ]

(* ------------------------------------------------------------------ *)
(* Triage persistence                                                  *)
(* ------------------------------------------------------------------ *)

let test_triage_roundtrip () =
  let path = Filename.temp_file "cosynth-triage" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Resilience.Triage.append ~path ~seed:7
        [ ("cisco-parse", "Failure", 3); ("bgp-sim", "Invalid_argument", 1) ];
      Resilience.Triage.append ~path ~seed:9 [ ("cisco-parse", "Failure", 2) ];
      (* A torn final line (writer died mid-write) must be skipped. *)
      let oc = open_out_gen [ Open_append ] 0o644 path in
      output_string oc "{\"stage\":\"trunc";
      close_out oc;
      match Resilience.Triage.load path with
      | [ bgp; cisco ] ->
          check string_t "sorted by stage" "bgp-sim" bgp.Resilience.Triage.stage;
          check int_t "counts summed" 5 cisco.Resilience.Triage.count;
          check int_t "first seed" 7 cisco.Resilience.Triage.first_seed;
          check int_t "last seed" 9 cisco.Resilience.Triage.last_seed
      | rows -> Alcotest.failf "expected 2 merged rows, got %d" (List.length rows))

let test_triage_missing_file () =
  check int_t "missing file is empty history" 0
    (List.length (Resilience.Triage.load "/nonexistent/cosynth-triage.jsonl"))

let test_triage_timestamps () =
  (* Timestamped lines (the daemon's) merge with untimestamped ones (the
     seeded sweeps'): first/last_ts cover only the stamped sightings, and
     a bucket never stamped loads as None — old journals stay readable. *)
  let path = Filename.temp_file "cosynth-triage-ts" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Resilience.Triage.append ~path ~seed:1 [ ("serve:sleep", "Deadline_exceeded", 1) ];
      Resilience.Triage.append ~ts:100. ~path ~seed:2
        [ ("serve:sleep", "Deadline_exceeded", 2) ];
      Resilience.Triage.append ~ts:250. ~path ~seed:3
        [ ("serve:sleep", "Deadline_exceeded", 1); ("vpp-loop", "Failure", 1) ];
      match Resilience.Triage.load path with
      | [ sleep; vpp ] ->
          check int_t "counts summed across stamped and unstamped" 4
            sleep.Resilience.Triage.count;
          check bool_t "first_ts is the earliest stamped line" true
            (sleep.Resilience.Triage.first_ts = Some 100.);
          check bool_t "last_ts is the latest stamped line" true
            (sleep.Resilience.Triage.last_ts = Some 250.);
          check bool_t "single sighting: first = last" true
            (vpp.Resilience.Triage.first_ts = Some 250.
            && vpp.Resilience.Triage.last_ts = Some 250.)
      | rows -> Alcotest.failf "expected 2 merged rows, got %d" (List.length rows))

(* ------------------------------------------------------------------ *)
(* qcheck: termination with certificate for arbitrary rates            *)
(* ------------------------------------------------------------------ *)

let rate_gen = QCheck2.Gen.float_bound_inclusive 1.0

let spec_gen =
  QCheck2.Gen.map
    (fun ((truncated, wrong_dialect, stale), (partial_fix, off_topic), (dropped, garbled)) ->
      Adversary.Spec.make
        ~llm:
          (Adversary.Llm.make ~truncated ~wrong_dialect ~stale ~partial_fix
             ~off_topic ~seed:5 ())
        ~findings:(Adversary.Findings.make ~dropped ~garbled ~seed:5 ())
        ())
    (QCheck2.Gen.triple
       (QCheck2.Gen.triple rate_gen rate_gen rate_gen)
       (QCheck2.Gen.pair rate_gen rate_gen)
       (QCheck2.Gen.pair rate_gen rate_gen))

let max_prompts = 30

let prop_loop_terminates_certified =
  QCheck2.Test.make ~name:"hardened loop terminates with a certificate for any rates"
    ~count:30 spec_gen (fun spec ->
      let t =
        (Cosynth.Driver.run_translation ~seed:11 ~max_prompts ~adversary:spec
           ~cisco_text:Cisco.Samples.border_router ())
          .Cosynth.Driver.transcript
      in
      let within_budget =
        t.Cosynth.Driver.auto_prompts + t.Cosynth.Driver.human_prompts <= max_prompts
      in
      let certified =
        if Adversary.Spec.is_none spec then t.Cosynth.Driver.certificate = None
        else t.Cosynth.Driver.certificate <> None
      in
      within_budget && certified)

(* The windowed revisit detector must stay silent on any all-distinct
   draft stream, for any window — escalations on converging conversations
   would burn human prompts for nothing. The drafts are fixed strings, so
   a digest collision (the only benign false positive) would be
   deterministic, not flaky. *)
let prop_distinct_drafts_never_fire =
  QCheck2.Test.make ~name:"distinct drafts never fire the windowed detector"
    ~count:100
    (QCheck2.Gen.pair (QCheck2.Gen.int_bound 12) (QCheck2.Gen.int_bound 20))
    (fun (window, n) ->
      let o = Adversary.Watch.osc ~window ~repeat_threshold:3 () in
      List.for_all
        (fun i -> Adversary.Watch.observe o (Printf.sprintf "draft %d" i) = None)
        (List.init n (fun i -> i)))

(* Beyond-period-2 detection must not move rate-0 behavior: a run with no
   adversary and a run with an all-zero spec stay byte-identical for any
   seed (the hardened machinery, detector window included, arms only when
   some rate is nonzero). *)
let prop_rate0_identity_any_seed =
  QCheck2.Test.make ~name:"rate-0 transcript identical to plain for any seed"
    ~count:15 (QCheck2.Gen.int_bound 10_000) (fun seed ->
      transcript_fingerprint (translate seed)
      = transcript_fingerprint (translate ~adversary:Adversary.Spec.none seed))

(* ------------------------------------------------------------------ *)
(* Byzantine verifiers: lies, determinism, and the trust ledger        *)
(* ------------------------------------------------------------------ *)

(* An all-zero verifier lie spec — adaptivity included, since a schedule
   with no rate to escalate is off — must keep the rate-0 byte-identity:
   the lie engine installs nothing. *)
let prop_verifier_rate0_identity_any_seed =
  QCheck2.Test.make
    ~name:"all-zero verifier lie spec keeps byte-identity (adaptive on)"
    ~count:10 (QCheck2.Gen.int_bound 10_000) (fun seed ->
      let spec =
        Adversary.Spec.make
          ~verifier:(Adversary.Verifier.make ~adaptive:true ()) ()
      in
      transcript_fingerprint (translate seed)
      = transcript_fingerprint (translate ~adversary:spec seed))

let test_verifier_lies_deterministic () =
  let spec () =
    Adversary.Spec.make
      ~verifier:
        (Adversary.Verifier.make ~false_negative:0.5 ~mutated:0.3 ~seed:7 ())
      ()
  in
  check string_t "same seed, same lie schedule, same transcript"
    (transcript_fingerprint (translate ~adversary:(spec ()) 3))
    (transcript_fingerprint (translate ~adversary:(spec ()) 3))

let test_trust_crosscheck_budget_and_quarantine () =
  (* A heavy false-negative liar with the trust layer on: the driver's
     cross-checks catch lies and quarantine the lying kinds, per-run
     voluntary spend stays within the configured budget, and the end state
     still verifies against the raw oracle — the A2 headline in one run. *)
  let cfg = Resilience.Trust.default_config in
  let spec =
    Adversary.Spec.make
      ~verifier:(Adversary.Verifier.make ~false_negative:0.9 ~seed:5 ())
      ()
  in
  let before = Resilience.Trust.snapshot () in
  let r =
    Cosynth.Driver.run_translation ~seed:3 ~adversary:spec ~trust:cfg
      ~cisco_text:Cisco.Samples.border_router ()
  in
  let d =
    Resilience.Trust.totals (Resilience.Trust.diff (Resilience.Trust.snapshot ()) before)
  in
  check bool_t "cross-checks within the budget" true
    (d.Resilience.Trust.cross_checks <= cfg.Resilience.Trust.check_budget);
  check bool_t "lies detected" true (d.Resilience.Trust.disagreements > 0);
  check bool_t "quarantine entries bounded by detected lies" true
    (d.Resilience.Trust.quarantines <= d.Resilience.Trust.disagreements);
  check bool_t "restores bounded by quarantine entries" true
    (d.Resilience.Trust.restores <= d.Resilience.Trust.quarantines);
  check bool_t "end state verified despite 0.9 fn lies" true
    r.Cosynth.Driver.verified

(* ------------------------------------------------------------------ *)
(* Colluding coalitions: rate-0 identity, determinism, quorum headline *)
(* ------------------------------------------------------------------ *)

(* Satellite of the A3 gate: an all-zero collusion spec — coalition
   members and the compromised-oracle flag included — installs nothing,
   for any seed. So does a non-empty rate with an empty coalition (an
   oracle flag alone colludes with nobody). *)
let prop_collusion_rate0_identity_any_seed =
  QCheck2.Test.make
    ~name:"all-zero / empty collusion spec keeps byte-identity"
    ~count:10 (QCheck2.Gen.int_bound 10_000) (fun seed ->
      let zero_rate =
        Adversary.Spec.make
          ~collusion:
            (Adversary.Collusion.make
               ~members:
                 [ Resilience.Verifier.Parse_check; Resilience.Verifier.Campion ]
               ~oracle:true ~rate:0.0 ())
          ()
      in
      let no_members =
        Adversary.Spec.make
          ~collusion:(Adversary.Collusion.make ~oracle:true ~rate:0.7 ())
          ()
      in
      let plain = transcript_fingerprint (translate seed) in
      plain = transcript_fingerprint (translate ~adversary:zero_rate seed)
      && plain = transcript_fingerprint (translate ~adversary:no_members seed))

let collusion_spec ?(rate = 0.35) ?(seed = 11) () =
  Adversary.Spec.make
    ~collusion:
      (Adversary.Collusion.make
         ~members:
           [ Resilience.Verifier.Parse_check; Resilience.Verifier.Campion ]
         ~oracle:true ~rate ~seed ())
    ()

let test_collusion_deterministic () =
  (* Same coalition config + same driver seed → the same suppression
     decisions on both the member wrappers and the oracle service, hence
     the same transcript — the decisions are keyed on honest-answer
     fingerprints, not wall-clock or call order. *)
  List.iter
    (fun seed ->
      check string_t
        (Printf.sprintf "collusion reproducible in seed %d" seed)
        (transcript_fingerprint (translate ~adversary:(collusion_spec ()) seed))
        (transcript_fingerprint (translate ~adversary:(collusion_spec ()) seed)))
    [ 3; 31; 9980 ]

let test_collusion_trust_ledger_restore_identity () =
  (* The persistent-ledger identity the A3 gate pins, in one run: a ledger
     restored from an all-initial-scores entry drives the attacked run to
     the same transcript as a fresh [?trust] ledger. *)
  let cfg = Resilience.Trust.default_config in
  let initial =
    Resilience.Trust.state_of
      (Resilience.Trust.create cfg)
      ~counters:Resilience.Trust.zero ~quorum:Resilience.Trust.zero_quorum
  in
  let run ?trust ?trust_ledger () =
    (Cosynth.Driver.run_translation ~seed:9980
       ~adversary:(collusion_spec ~rate:0.5 ())
       ?trust ?trust_ledger ~cisco_text:Cisco.Samples.border_router ())
      .Cosynth.Driver.transcript
  in
  check string_t "restored all-initial ledger == fresh trust config"
    (transcript_fingerprint (run ~trust:cfg ()))
    (transcript_fingerprint
       (run ~trust_ledger:(Resilience.Trust.create_from cfg initial) ()))

let test_collusion_quorum_restores_verification () =
  (* The A3 headline in one seed: with the oracle in the coalition, PR 8's
     oracle-as-ground-truth trust (audit budget 0) is blind — while the
     quorum defense detects the collusion and quarantines the oracle.
     Coalition seed tied to the driver seed, the CLI/bench convention. *)
  let spec () = collusion_spec ~rate:0.5 ~seed:9980 () in
  let cfg = Resilience.Trust.default_config in
  let before = Resilience.Trust.quorum_snapshot () in
  let r =
    Cosynth.Driver.run_translation ~seed:9980 ~adversary:(spec ()) ~trust:cfg
      ~cisco_text:Cisco.Samples.border_router ()
  in
  let d =
    Resilience.Trust.diff_quorum (Resilience.Trust.quorum_snapshot ()) before
  in
  check bool_t "quorum audits spent" true (d.Resilience.Trust.audits > 0);
  check bool_t "collusion overruled" true (d.Resilience.Trust.overruled > 0);
  check bool_t "compromised oracle quarantined" true
    (d.Resilience.Trust.oracle_quarantines > 0);
  check bool_t "run verified under a colluding oracle" true
    r.Cosynth.Driver.verified;
  (* PR 8's defense on the same attack: no audits, no detection. *)
  let before = Resilience.Trust.quorum_snapshot () in
  let r8 =
    Cosynth.Driver.run_translation ~seed:9980 ~adversary:(spec ())
      ~trust:{ cfg with Resilience.Trust.audit_budget = 0 }
      ~cisco_text:Cisco.Samples.border_router ()
  in
  let d8 =
    Resilience.Trust.diff_quorum (Resilience.Trust.quorum_snapshot ()) before
  in
  ignore r8;
  check int_t "oracle-only defense never audits" 0 d8.Resilience.Trust.audits;
  check int_t "oracle-only defense never detects" 0
    d8.Resilience.Trust.overruled

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "adversary"
    [
      ( "watch",
        [
          Alcotest.test_case "period-1 cycle detected" `Quick test_osc_period1;
          Alcotest.test_case "planted A/B/A cycle detected" `Quick test_osc_planted_aba;
          Alcotest.test_case "window revisit fires period 3" `Quick
            test_osc_window_period3;
          Alcotest.test_case "window bounds the revisit search" `Quick
            test_osc_window_bound;
          Alcotest.test_case "watchdog fires at exactly K" `Quick
            test_watchdog_fires_at_exactly_k;
          Alcotest.test_case "watchdog resets on progress" `Quick
            test_watchdog_reset_on_progress;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "llm modes reproducible in seed" `Quick
            test_llm_modes_deterministic;
          Alcotest.test_case "findings modes reproducible in seed" `Quick
            test_findings_modes_deterministic;
          Alcotest.test_case "modes draw disjoint streams" `Quick
            test_modes_distinct_streams;
        ] );
      ( "certificates",
        [
          Alcotest.test_case "rate-0 identity" `Quick test_rate0_identity;
          Alcotest.test_case "outcome journal round-trip" `Quick
            test_outcome_roundtrip;
          Alcotest.test_case "run contract on decoded records" `Quick
            test_run_contract;
          Alcotest.test_case "hardened runs certified" `Quick
            test_hardened_run_certified;
        ] );
      ( "triage",
        [
          Alcotest.test_case "append/load round-trip" `Quick test_triage_roundtrip;
          Alcotest.test_case "missing file" `Quick test_triage_missing_file;
          Alcotest.test_case "timestamps merge with unstamped lines" `Quick
            test_triage_timestamps;
        ] );
      ( "byzantine-verifiers",
        [
          Alcotest.test_case "lies reproducible in seed" `Slow
            test_verifier_lies_deterministic;
          Alcotest.test_case "trust: budget, quarantine, verified end state" `Slow
            test_trust_crosscheck_budget_and_quarantine;
        ] );
      ( "collusion",
        [
          Alcotest.test_case "coalition reproducible in seed" `Slow
            test_collusion_deterministic;
          Alcotest.test_case "restored ledger == fresh trust config" `Slow
            test_collusion_trust_ledger_restore_identity;
          Alcotest.test_case "quorum detects what oracle-only cannot" `Slow
            test_collusion_quorum_restores_verification;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_loop_terminates_certified;
          QCheck_alcotest.to_alcotest prop_distinct_drafts_never_fire;
          QCheck_alcotest.to_alcotest prop_rate0_identity_any_seed;
          QCheck_alcotest.to_alcotest prop_verifier_rate0_identity_any_seed;
          QCheck_alcotest.to_alcotest prop_collusion_rate0_identity_any_seed;
        ] );
    ]
