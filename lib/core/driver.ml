open Policy

type origin = Auto | Human | Degraded | Stalled | Crosscheck

(* The convergence certificate a hardened (adversary-on) run attaches to
   its transcript. [None] on the unhardened path, so plain runs serialize
   and render byte-identically to before the certificate existed. *)
type certificate = Converged | Stalled_out of string | Oscillating of int

type event = { origin : origin; prompt : string; note : string }

type transcript = {
  events : event list;
  human_prompts : int;
  auto_prompts : int;
  converged : bool;
  rounds : int;
  certificate : certificate option;
}

let certificate_to_string = function
  | Converged -> "converged"
  | Stalled_out reason -> "stalled: " ^ reason
  | Oscillating period -> Printf.sprintf "oscillating (period %d)" period

(* Zero human prompts is a genuinely different regime, not "one human
   prompt": every automated prompt came for free. Report it as infinite
   leverage (and 0 for an empty transcript) rather than conflating
   "20 auto / 0 human" with "20 auto / 1 human". *)
let leverage t =
  if t.human_prompts = 0 then if t.auto_prompts > 0 then Float.infinity else 0.
  else float_of_int t.auto_prompts /. float_of_int t.human_prompts

let transcript_to_markdown ~title t =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf (Printf.sprintf "# %s\n\n" title);
  Buffer.add_string buf
    (Printf.sprintf
       "%d automated prompts, %d human prompts — leverage %.1fx; converged: %b\n\n"
       t.auto_prompts t.human_prompts (leverage t) t.converged);
  (* Certificate line only when present, so unhardened transcripts stay
     byte-identical to the pre-certificate format. *)
  (match t.certificate with
  | None -> ()
  | Some c ->
      Buffer.add_string buf
        (Printf.sprintf "convergence certificate: %s\n\n" (certificate_to_string c)));
  List.iteri
    (fun i (e : event) ->
      let who =
        match e.origin with
        | Auto -> "automated"
        | Human -> "HUMAN"
        | Degraded -> "degraded"
        | Stalled -> "STALLED"
        | Crosscheck -> "cross-check"
      in
      Buffer.add_string buf (Printf.sprintf "## %d. [%s] (%s)\n\n" (i + 1) who e.note);
      Buffer.add_string buf (String.trim e.prompt);
      Buffer.add_string buf "\n\n")
    t.events;
  Buffer.contents buf

(* The transcript's JSON rendering: the golden digests and the rate-0
   identity pins compare it byte for byte, so every event field is kept. *)
let origin_to_string = function
  | Auto -> "auto"
  | Human -> "human"
  | Degraded -> "degraded"
  | Stalled -> "stalled"
  | Crosscheck -> "crosscheck"

let certificate_to_json = function
  | Converged -> Netcore.Json.Obj [ ("k", Netcore.Json.String "converged") ]
  | Stalled_out reason ->
      Netcore.Json.Obj
        [ ("k", Netcore.Json.String "stalled"); ("reason", Netcore.Json.String reason) ]
  | Oscillating period ->
      Netcore.Json.Obj
        [ ("k", Netcore.Json.String "oscillating"); ("period", Netcore.Json.Int period) ]

let transcript_to_json t =
  Netcore.Json.Obj
    ([
       ("human", Netcore.Json.Int t.human_prompts);
       ("auto", Netcore.Json.Int t.auto_prompts);
       ("converged", Netcore.Json.Bool t.converged);
       ("rounds", Netcore.Json.Int t.rounds);
     ]
    (* The field is emitted only when present, so unhardened transcripts
       keep the exact pre-certificate shape. *)
    @ (match t.certificate with
      | None -> []
      | Some c -> [ ("cert", certificate_to_json c) ])
    @ [
      ( "events",
        Netcore.Json.List
          (List.map
             (fun e ->
               Netcore.Json.Obj
                 [
                   ("o", Netcore.Json.String (origin_to_string e.origin));
                   ("p", Netcore.Json.String e.prompt);
                   ("n", Netcore.Json.String e.note);
                 ])
             t.events) );
    ])

let degraded_rounds t =
  List.length (List.filter (fun e -> e.origin = Degraded) t.events)

let prompts t = t.auto_prompts + t.human_prompts

let stalled_out t =
  match t.certificate with Some (Stalled_out _) -> true | _ -> false

let translation_budget = 200
let no_transit_budget = 400
let incremental_budget = 100

let run_violations ~budget ~hardened t =
  (if prompts t > budget then
     [ Printf.sprintf "spent %d prompts (budget %d)" (prompts t) budget ]
   else [])
  @
  match (hardened, t.certificate) with
  | true, None -> [ "hardened run carries no convergence certificate" ]
  | false, Some _ -> [ "rate-0 run carries a certificate" ]
  | true, Some _ | false, None -> []

(* The sweep-journal codec keeps the summary-relevant projection of each
   supervised outcome. Certificates are emitted only when present, so
   lie-free runs keep the exact pre-certificate line shape. *)
let outcome_to_json (o : transcript Exec.Supervisor.outcome) =
  let open Netcore.Json in
  match o with
  | Exec.Supervisor.Completed t ->
      Obj
        ([
           ("ok", Bool true);
           ("auto", Int t.auto_prompts);
           ("human", Int t.human_prompts);
           ("converged", Bool t.converged);
           ("rounds", Int t.rounds);
           ("degraded", Int (degraded_rounds t));
         ]
        @
        match t.certificate with
        | None -> []
        | Some c ->
            [
              ( "certificate",
                Obj
                  (match c with
                  | Converged -> [ ("kind", String "converged") ]
                  | Stalled_out reason ->
                      [ ("kind", String "stalled"); ("reason", String reason) ]
                  | Oscillating period ->
                      [ ("kind", String "oscillating"); ("period", Int period) ]) );
            ])
  | Exec.Supervisor.Abandoned { attempts; reason } ->
      Obj [ ("ok", Bool false); ("attempts", Int attempts); ("reason", String reason) ]

let outcome_of_json json =
  let open Netcore.Json in
  let mem f name j = Option.bind (member name j) f in
  match mem to_bool "ok" json with
  | Some true -> (
      match
        ( mem to_int "auto" json,
          mem to_int "human" json,
          mem to_bool "converged" json,
          mem to_int "rounds" json,
          mem to_int "degraded" json )
      with
      | Some auto, Some human, Some converged, Some rounds, Some degraded ->
          let certificate =
            Option.bind (member "certificate" json) (fun c ->
                match mem to_str "kind" c with
                | Some "converged" -> Some Converged
                | Some "stalled" ->
                    Option.map (fun r -> Stalled_out r) (mem to_str "reason" c)
                | Some "oscillating" ->
                    Option.map (fun p -> Oscillating p) (mem to_int "period" c)
                | _ -> None)
          in
          (* Placeholder [Degraded] events make a replayed transcript
             reprint the degraded-rounds line exactly. *)
          let replayed =
            { origin = Degraded; prompt = "(replayed from journal)"; note = "degraded" }
          in
          Some
            (Exec.Supervisor.Completed
               {
                 events = List.init degraded (fun _ -> replayed);
                 human_prompts = human;
                 auto_prompts = auto;
                 converged;
                 rounds;
                 certificate;
               })
      | _ -> None)
  | Some false -> (
      match (mem to_int "attempts" json, mem to_str "reason" json) with
      | Some attempts, Some reason -> Some (Exec.Supervisor.Abandoned { attempts; reason })
      | _ -> None)
  | None -> None

(* Per-loop adversary state: the Byzantine-LLM wrapper, the findings
   corruption layer, and the two convergence monitors. Present only when a
   non-trivial spec was passed — every [None] check below is the rate-0
   byte-identity switch. *)
type adv = {
  spec : Adversary.Spec.t;
  llm : Adversary.Llm.t;
  corruption : Adversary.Findings.t;
  lies : Adversary.Verifier.t;  (* Byzantine-verifier lie engine *)
  colluders : Adversary.Collusion.t;  (* colluding coalition (+ oracle) *)
  osc : Adversary.Watch.osc;
  prog : Adversary.Watch.progress;
  mutable escalate : int option;  (* pending oscillation period *)
  mutable escalations : int;
}

(* Mutable loop bookkeeping shared by both use cases. *)
type loop_state = {
  mutable events : event list;  (* reversed *)
  mutable human : int;
  mutable auto : int;
  mutable rounds : int;
  mutable stalls : (string * int) list;  (* prompt text -> attempts *)
  max_prompts : int;
  stall_threshold : int;
  mutable certificate : certificate option;
  adversary : adv option;
  trust : Resilience.Trust.t option;
}

let adv_of_spec spec =
  match spec with
  | None -> None
  | Some s when Adversary.Spec.is_none s -> None
  | Some s ->
      Some
        {
          spec = s;
          llm = Adversary.Llm.create s.Adversary.Spec.llm;
          corruption = Adversary.Findings.create s.Adversary.Spec.findings;
          lies = Adversary.Verifier.create s.Adversary.Spec.verifier;
          colluders = Adversary.Collusion.create s.Adversary.Spec.collusion;
          osc = Adversary.Watch.osc ~repeat_threshold:s.Adversary.Spec.osc_repeat ();
          prog = Adversary.Watch.progress ~rounds:s.Adversary.Spec.watchdog_rounds;
          escalate = None;
          escalations = 0;
        }

(* An independent adversary state for fan-out task [idx], mirroring
   [Resilience.Runtime.derive]: disjoint streams, fresh monitors. *)
let adv_derive adversary idx =
  Option.map
    (fun a ->
      {
        a with
        llm = Adversary.Llm.derive a.llm idx;
        corruption = Adversary.Findings.derive a.corruption idx;
        lies = Adversary.Verifier.derive a.lies idx;
        colluders = Adversary.Collusion.derive a.colluders idx;
        osc = Adversary.Watch.osc ~repeat_threshold:a.spec.Adversary.Spec.osc_repeat ();
        prog = Adversary.Watch.progress ~rounds:a.spec.Adversary.Spec.watchdog_rounds;
        escalate = None;
        escalations = 0;
      })
    adversary

let new_loop ~adversary ~trust ~max_prompts ~stall_threshold =
  {
    events = [];
    human = 0;
    auto = 0;
    rounds = 0;
    stalls = [];
    max_prompts;
    stall_threshold;
    certificate = None;
    adversary;
    trust;
  }

let budget_left st = st.auto + st.human < st.max_prompts

(* Fold a per-router loop state into the shared one. Both event lists are
   reversed (newest first), so the sub-run's events go in front. Used when
   the per-router synthesis tasks run independently (possibly on a pool)
   and join back into the run-wide transcript. *)
let absorb st sub =
  st.events <- sub.events @ st.events;
  st.human <- st.human + sub.human;
  st.auto <- st.auto + sub.auto;
  st.rounds <- st.rounds + sub.rounds;
  st.stalls <- sub.stalls @ st.stalls;
  (* The first non-converged sub-certificate wins: one stalled router is
     enough to disqualify the merged run's convergence. *)
  (match (st.certificate, sub.certificate) with
  | None, Some _ | Some Converged, Some (Stalled_out _ | Oscillating _) ->
      st.certificate <- sub.certificate
  | _ -> ())

let record st origin prompt note =
  st.events <- { origin; prompt; note } :: st.events;
  match origin with
  | Auto -> st.auto <- st.auto + 1
  | Human -> st.human <- st.human + 1
  | Degraded | Stalled | Crosscheck -> ()  (* transcript annotations, not prompts *)

(* Chat access routed through the Byzantine wrapper when one is armed; the
   [None] arms are exactly the pre-adversary code path. *)
let adv_draft st chat =
  match st.adversary with
  | None -> Llmsim.Chat.hashed_draft chat
  | Some a -> Adversary.Llm.draft a.llm chat

let adv_respond st chat prompt =
  match st.adversary with
  | None -> Llmsim.Chat.respond chat prompt
  | Some a -> Adversary.Llm.respond a.llm chat prompt

(* Send a finding straight to the (simulated) human — the escalation path
   when a verifier stage has degraded and the human ran the check by hand.
   No stall bookkeeping: the human prompt is authoritative. Returns [None]
   when the finding carries no actionable reference (the loop should give
   up on it). *)
let send_human st (chat : Llmsim.Chat.t) (prompt : Humanizer.prompt) ~note =
  if prompt.Humanizer.refs = [] then None
  else begin
    let human_text = "[human] " ^ prompt.Humanizer.text in
    adv_respond st chat
      { Llmsim.Chat.text = human_text; refs = prompt.Humanizer.refs; strength = Llmsim.Chat.Human };
    record st Human human_text note;
    st.stalls <- List.remove_assoc prompt.Humanizer.text st.stalls;
    Some Human
  end

(* Send a humanized prompt; escalate to a human prompt after
   [stall_threshold] automated attempts at the same prompt text. Returns the
   origin used, or [None] as for [send_human]. *)
let send st (chat : Llmsim.Chat.t) (prompt : Humanizer.prompt) ~note =
  let attempts = Option.value ~default:0 (List.assoc_opt prompt.Humanizer.text st.stalls) in
  if attempts >= st.stall_threshold then send_human st chat prompt ~note
  else begin
    adv_respond st chat
      {
        Llmsim.Chat.text = prompt.Humanizer.text;
        refs = prompt.Humanizer.refs;
        strength = Llmsim.Chat.Auto;
      };
    record st Auto prompt.Humanizer.text note;
    st.stalls <-
      (prompt.Humanizer.text, attempts + 1) :: List.remove_assoc prompt.Humanizer.text st.stalls;
    Some Auto
  end

(* ------------------------------------------------------------------ *)
(* Byzantine-verifier lenses                                           *)
(* ------------------------------------------------------------------ *)

(* One lens per verifier output type: how the lying wrapper forges each of
   its three modes. Fabricated findings are plausible but fictitious;
   mutations keep a real finding and misplace it (wrong direction, wrong
   neighbor, wrong line) — the "right diagnosis, wrong router" attack.
   The lenses live here, not in [Adversary.Verifier], because only the
   driver layer sees every typed finding. *)

let parse_lens =
  {
    Adversary.Verifier.clean =
      (fun (ir, diags) -> (ir, List.filter (fun d -> not (Netcore.Diag.is_error d)) diags));
    fabricate =
      (fun (ir, diags) ->
        (ir, diags @ [ Netcore.Diag.error ~line:1 "unexpected token at top of file" ]));
    mutate =
      (fun (ir, diags) ->
        ( ir,
          List.map
            (fun d ->
              if Netcore.Diag.is_error d then
                {
                  d with
                  Netcore.Diag.line = 0;
                  message = "in a later stanza: " ^ d.Netcore.Diag.message;
                }
              else d)
            diags ));
  }

let campion_lens =
  let open Campion.Differ in
  let flip = function Import -> Export | Export -> Import in
  let twist = function
    | Structural (Missing_policy m) ->
        Structural (Missing_policy { m with direction = flip m.direction })
    | Structural (Missing_neighbor m) ->
        Structural
          (Missing_neighbor { m with missing_in_translation = not m.missing_in_translation })
    | Structural (Missing_acl_attachment m) ->
        Structural (Missing_acl_attachment { m with direction = flip m.direction })
    | Structural _ as f -> f
    | Attribute a ->
        Attribute
          { a with original_value = a.translated_value; translated_value = a.original_value }
    | Behavior b -> Behavior { b with direction = flip b.direction }
    | Acl_behavior b -> Acl_behavior { b with acl_direction = flip b.acl_direction }
  in
  {
    Adversary.Verifier.clean = (fun _ -> []);
    fabricate =
      (fun findings ->
        Structural
          (Missing_policy
             {
               neighbor = Netcore.Ipv4.of_octets 203 0 113 199;
               direction = Import;
               missing_in_translation = true;
             })
        :: findings);
    mutate = (function [] -> [] | f :: rest -> twist f :: rest);
  }

let topology_lens =
  {
    Adversary.Verifier.clean = (fun _ -> []);
    fabricate =
      (fun findings ->
        {
          Topoverify.Verifier.kind = Topoverify.Verifier.Local_as_mismatch;
          message = "local AS mismatch: configured AS disagrees with the topology dictionary";
          iface = None;
          peer = None;
          network = None;
        }
        :: findings);
    mutate =
      (function
      | [] -> []
      | f :: rest ->
          {
            f with
            Topoverify.Verifier.message =
              "on a different router: " ^ f.Topoverify.Verifier.message;
            iface = None;
            peer = None;
            network = None;
          }
          :: rest);
  }

let route_policies_lens =
  let open Batfish.Search_route_policies in
  {
    Adversary.Verifier.clean =
      List.map (fun (s, o) -> match o with Violated _ -> (s, Holds) | _ -> (s, o));
    fabricate =
      (function
      | [] -> []
      | (s, _) :: rest ->
          ( s,
            Violated
              {
                spec = s;
                example = Netcore.Route.make (Netcore.Prefix.of_string_exn "198.51.100.0/24");
                got_action = Action.Deny;
                at_seq = None;
                replaced_communities = false;
              } )
          :: rest);
    mutate =
      List.map (fun (s, o) ->
          match o with
          | Violated v ->
              (s, Violated { v with spec = { v.spec with policy = v.spec.policy ^ "-other" } })
          | _ -> (s, o));
  }

(* Arm the lying schedules — the lie engine's, then the coalition's over
   it (and, when the coalition owns the oracle, as the cross-check oracle
   service too). A no-op without an adversary or with every lie rate 0:
   the schedules stay exactly as chaos left them, preserving rate-0
   byte-identity. *)
let arm_verifier_lies adversary ~lens v =
  match adversary with
  | None -> ()
  | Some a ->
      Adversary.Verifier.arm a.lies ~lens v;
      Adversary.Collusion.arm a.colluders ~lens v

let arm_suite_lies adversary (suite : Resilience.Suite.t) =
  arm_verifier_lies adversary ~lens:parse_lens suite.Resilience.Suite.parse;
  arm_verifier_lies adversary ~lens:campion_lens suite.Resilience.Suite.campion;
  arm_verifier_lies adversary ~lens:topology_lens suite.Resilience.Suite.topology;
  arm_verifier_lies adversary ~lens:route_policies_lens suite.Resilience.Suite.route_policies

(* The whole-network check (the paper's Minesweeper-style global verifier)
   wrapped like a suite stage, with its one lens armed. Its answer is
   [((ok, violations), proof)]; the incremental loop's closing check has no
   proof and answers [None]. *)
let global_verifier rt adversary check =
  let v =
    Resilience.Runtime.arm rt
      (Resilience.Verifier.wrap ~dirty:(fun ((ok, _), _) -> not ok) Resilience.Verifier.Bgp_sim
         check)
  in
  arm_verifier_lies adversary v
    ~lens:
      {
        Adversary.Verifier.clean = (fun (_, proof) -> ((true, []), proof));
        fabricate =
          (fun ((_, violations), proof) ->
            ((false, violations @ [ "a route from ISP-1 can reach ISP-2" ]), proof));
        mutate =
          (fun ((ok, violations), proof) ->
            ( (ok, List.map (fun v -> "between a different pair of spokes: " ^ v) violations),
              proof ));
      };
  v

(* ------------------------------------------------------------------ *)
(* Resilient verifier stages                                           *)
(* ------------------------------------------------------------------ *)

(* The transcript wording of what a hardened check reports. A degraded or
   quarantined stage's findings arrive as human prompts; a verifier outage
   shows up as reduced leverage, not a hang or a crash. *)
let record_note st (n : Resilience.Runtime.note) =
  let crosscheck = record st Crosscheck in
  let name = Resilience.Verifier.kind_name in
  match n with
  | Degraded (kind, reason) ->
      record st Degraded
        (Printf.sprintf
           "[degraded] %s verifier unavailable: %s. The human operator runs this check \
            by hand; its findings arrive as human prompts."
           (name kind) reason)
        "degraded"
  | Caught_lying kind ->
      crosscheck
        (Printf.sprintf
           "[cross-check] the %s verifier's answer disagrees with an independent \
            oracle re-run; using the oracle's answer and debiting the verifier's \
            trust."
           (name kind))
        "cross-check"
  | Quarantined kind ->
      crosscheck
        (Printf.sprintf
           "[quarantine] the %s verifier fell below the trust threshold; its checks are now \
            hand-run and its findings escalate to human prompts until probation clears."
           (name kind))
        "quarantine"
  | Restored (kind, streak) ->
      crosscheck
        (Printf.sprintf
           "[probation] the %s verifier matched the hand-run check %d consecutive \
            times; trust restored and quarantine lifted."
           (name kind) streak)
        "probation"
  | Outvoted kind ->
      crosscheck
        (Printf.sprintf
           "[quorum] a hand-run referee disputes the clean pass the %s verifier and \
            the cross-check oracle agree on, but their combined trust outvotes the \
            quorum; the clean pass stands."
           (name kind))
        "quorum-outvoted"
  | Overruled kind ->
      crosscheck
        (Printf.sprintf
           "[quorum] the %s verifier and the cross-check oracle agree on a clean pass, \
            but the hand-run quorum referees overrule them: collusion detected — using \
            the referee's findings and debiting both."
           (name kind))
        "quorum"
  | Oracle_quarantined ->
      crosscheck
        "[oracle-quarantine] the cross-check oracle fell below the trust threshold; \
         cross-checks now consult the hand-run check directly until oracle probation \
         clears."
        "oracle-quarantine"
  | Oracle_restored streak ->
      crosscheck
        (Printf.sprintf
           "[oracle-probation] the cross-check oracle matched the hand-run check %d \
            consecutive times; oracle trust restored."
           streak)
        "oracle-probation"

let run_stage st rt v input =
  Resilience.Runtime.check rt ?trust:st.trust ~note:(record_note st) v input

let hand_checked = function Resilience.Runtime.Checked _ -> false | _ -> true

(* Deliver a finding down the channel the stage earned: the automated
   prompt (with stall escalation) when the verifier answered, the human
   directly when the stage was hand-checked. *)
let dispatch st chat ~degraded prompt ~note =
  if degraded then send_human st chat prompt ~note else send st chat prompt ~note

(* ------------------------------------------------------------------ *)
(* Convergence hardening (adversary-on runs only)                      *)
(* ------------------------------------------------------------------ *)

(* Observe the round's draft. [true] = the oscillation detector has fired
   more times than the escalation allowance: the loop must end with an
   [Oscillating] certificate instead of burning more budget. A first or
   second detection instead arms [escalate], which forces the next finding
   down the human path. *)
let max_oscillation_escalations = 2

let observe_draft st draft =
  match st.adversary with
  | None -> false
  | Some a -> (
      match Adversary.Watch.observe a.osc draft.Netcore.Draft.text with
      | None -> false
      | Some period ->
          if a.escalations >= max_oscillation_escalations then begin
            st.certificate <- Some (Oscillating period);
            record st Stalled
              (Printf.sprintf
                 "[oscillation] the drafts cycle with period %d despite human \
                  escalation; ending the loop with an oscillation verdict."
                 period)
              "oscillation";
            true
          end
          else begin
            a.escalations <- a.escalations + 1;
            a.escalate <- Some period;
            false
          end)

(* Observe the round's outstanding finding count for the stage that
   produced it. [true] = the progress watchdog fired: K consecutive rounds
   without a shrinking finding set — the loop must end with a [Stalled_out]
   certificate rather than an uncaught budget exhaustion. *)
let observe_findings st ~stage ~findings =
  match st.adversary with
  | None -> false
  | Some a ->
      if Adversary.Watch.step a.prog ~stage ~findings then begin
        st.certificate <-
          Some
            (Stalled_out
               (Printf.sprintf "no progress for %d rounds (last stage: %s, %d findings)"
                  a.spec.Adversary.Spec.watchdog_rounds stage findings));
        record st Stalled
          (Printf.sprintf
             "[watchdog] %d consecutive rounds without a shrinking finding set at \
              the %s stage; ending the loop with a stalled verdict."
             a.spec.Adversary.Spec.watchdog_rounds stage)
          "watchdog";
        true
      end
      else false

(* Deliver a finding through the (possibly corrupted) feedback channel.
   [`Sent] — at least one prompt went out, continue the loop. [`Dropped] —
   the corruption swallowed the finding; the loop continues and the
   watchdog bounds repeated drops (they consume no prompt budget).
   [`Gave_up] — every delivery stalled out with no actionable reference. *)
let deliver st chat ~degraded (prompt : Humanizer.prompt) ~note =
  match st.adversary with
  | None -> (
      match dispatch st chat ~degraded prompt ~note with
      | Some origin -> `Sent origin
      | None -> `Gave_up)
  | Some a -> (
      match a.escalate with
      | Some period -> (
          (* A detected oscillation bypasses stall bookkeeping and the
             corruption layer: the human breaks the cycle directly. *)
          a.escalate <- None;
          match
            send_human st chat (Humanizer.of_oscillation ~period prompt) ~note:"oscillation"
          with
          | Some origin -> `Sent origin
          | None -> `Gave_up)
      | None -> (
          match
            Adversary.Findings.corrupt a.corruption ~text:prompt.Humanizer.text
              ~refs:prompt.Humanizer.refs
          with
          | [] -> `Dropped
          | pieces -> (
              let sent =
                List.filter_map
                  (fun (text, refs) ->
                    dispatch st chat ~degraded { Humanizer.text; refs } ~note)
                  pieces
              in
              match sent with [] -> `Gave_up | origin :: _ -> `Sent origin)))

(* A crashed stage yields no finding, only a rewrite instruction. [k]
   continues the loop once the prompt is delivered; [stop] ends it when the
   crasher has stalled out (the prompt carries no refs, so [send] gives up
   after [stall_threshold] identical attempts — a persistent crasher bounds
   the transcript instead of spinning). *)
let on_crash st chat crash ~k ~stop =
  match send st chat (Humanizer.of_crash crash) ~note:"crash" with
  | Some _ -> k ()
  | None -> stop ()

(* One round's header, shared by every local loop: count the round, stop
   when the prompt budget is spent, then draft and watch the draft for
   oscillation. [body] gets the draft; [stop] ends the loop on it. *)
let round st rt chat ~out_of_budget ~stop body =
  st.rounds <- st.rounds + 1;
  if not (budget_left st) then out_of_budget ()
  else begin
    Resilience.Runtime.new_round rt;
    let draft = adv_draft st chat in
    if observe_draft st draft then stop draft else body draft
  end

(* One verifier stage of a local loop. A clean answer ([findings] empty)
   passes to [next]. Otherwise the watchdog sees the finding count and the
   first finding goes out as a prompt named after the stage: the loop
   [retry]s once it is delivered or dropped, and [stop]s when the watchdog
   fires or delivery gives up. A crashed stage becomes a rewrite prompt.
   [sent] sees every delivered prompt with its origin. *)
let stage st rt chat v input ~name ~findings ~prompt ?(sent = fun _ _ -> ()) ~retry ~stop
    next =
  match run_stage st rt v input with
  | Crashed crash -> on_crash st chat crash ~k:retry ~stop
  | (Checked answer | Hand_checked answer) as result -> (
      match findings answer with
      | [] -> next answer
      | first :: _ as all -> (
          if observe_findings st ~stage:name ~findings:(List.length all) then stop ()
          else
            let prompt = prompt first in
            match deliver st chat ~degraded:(hand_checked result) prompt ~note:name with
            | `Sent origin ->
                sent origin prompt;
                retry ()
            | `Dropped -> retry ()
            | `Gave_up -> stop ()))

let finish st converged =
  (* A hardened run always carries a verdict; the unhardened path carries
     none (and therefore serializes byte-identically to before). *)
  (match (st.adversary, st.certificate) with
  | Some _, None ->
      st.certificate <-
        Some
          (if converged then Converged
           else if budget_left st then
             Stalled_out "gave up: finding with no actionable reference"
           else Stalled_out "prompt budget exhausted")
  | _ -> ());
  {
    events = List.rev st.events;
    human_prompts = st.human;
    auto_prompts = st.auto;
    converged;
    rounds = st.rounds;
    certificate = st.certificate;
  }

(* ------------------------------------------------------------------ *)
(* Class outcome tracking (Table 2)                                    *)
(* ------------------------------------------------------------------ *)

type class_outcome = {
  class_ : Llmsim.Error_class.t;
  fixed_by_generated_prompt : bool;
}

type tracker = {
  mutable seen : Llmsim.Error_class.t list;
  mutable tainted : Llmsim.Error_class.t list;
      (* needed a human prompt, or morphed into another class *)
}

let track_seen tr (chat : Llmsim.Chat.t) =
  List.iter
    (fun (f : Llmsim.Fault.t) ->
      if not (List.mem f.Llmsim.Fault.class_ tr.seen) then
        tr.seen <- tr.seen @ [ f.Llmsim.Fault.class_ ])
    (Llmsim.Chat.live_faults chat)

let taint tr cls = if not (List.mem cls tr.tainted) then tr.tainted <- tr.tainted @ [ cls ]

let outcomes_of tr (chat : Llmsim.Chat.t) =
  let still_live cls =
    List.exists
      (fun (f : Llmsim.Fault.t) -> Llmsim.Error_class.equal f.Llmsim.Fault.class_ cls)
      (Llmsim.Chat.live_faults chat)
  in
  List.map
    (fun cls ->
      {
        class_ = cls;
        fixed_by_generated_prompt =
          (not (List.mem cls tr.tainted))
          && (Llmsim.Error_class.profile cls).Llmsim.Error_class.successor = None
          && not (still_live cls);
      })
    tr.seen

(* A morphing class (successor present) never counts as fixed by its own
   generated prompt; mark it tainted as soon as it is seen. *)
let pre_taint tr =
  List.iter
    (fun cls ->
      if (Llmsim.Error_class.profile cls).Llmsim.Error_class.successor <> None then taint tr cls)
    tr.seen

(* ------------------------------------------------------------------ *)
(* Use case 1: translation                                             *)
(* ------------------------------------------------------------------ *)

type translation_result = {
  transcript : transcript;
  final_text : string;
  outcomes : class_outcome list;
  verified : bool;
}

let first_error diags = List.find_opt Netcore.Diag.is_error diags

let syntax_errors (_, diags) = List.filter Netcore.Diag.is_error diags

(* The start every loop shares: a resilience context salted by the seed,
   its suite with the adversary's lies armed, the loop state, and the
   task's opening human prompt as the transcript's first event. The trust
   ledger is the caller's [trust_ledger] when one is passed, else a fresh
   one for a [trust] config, else none. *)
let start_loop ~seed ~resilience ~adversary ?trust ?trust_ledger ~max_prompts
    ~stall_threshold ~prompt ~note () =
  let rt = Resilience.Runtime.create ~salt:seed resilience in
  let suite = Resilience.Suite.make rt in
  let adv = adv_of_spec adversary in
  arm_suite_lies adv suite;
  let trust =
    match trust_ledger with
    | Some _ -> trust_ledger
    | None -> Option.map Resilience.Trust.create trust
  in
  let st = new_loop ~adversary:adv ~trust ~max_prompts ~stall_threshold in
  record st Human prompt note;
  (rt, suite, st)

let run_translation ?(seed = 42) ?(force_faults = []) ?(suppress_random = false)
    ?(max_prompts = translation_budget) ?(stall_threshold = 4) ?(quality = 0.0)
    ?(resilience = Resilience.Runtime.default_config) ?adversary ?trust ?trust_ledger
    ~cisco_text () =
  let cisco_ir, _ = Cisco.Parser.parse cisco_text in
  let original = (Netcore.Draft.of_string cisco_text, cisco_ir) in
  let correct = Juniper.Translate.of_cisco_ir cisco_ir in
  let chat =
    Llmsim.Chat.start ~seed ~force_faults ~suppress_random ~regression_rate:0.2 ~quality
      Llmsim.Fault.Junos_cfg ~correct
  in
  let rt, suite, st =
    start_loop ~seed ~resilience ~adversary ?trust ?trust_ledger ~max_prompts
      ~stall_threshold
      ~prompt:"Translate the configuration into an equivalent Juniper configuration."
      ~note:"initial task prompt" ()
  in
  let tr = { seen = []; tainted = [] } in
  track_seen tr chat;
  let taint_refs origin (prompt : Humanizer.prompt) =
    List.iter
      (fun (f : Llmsim.Fault.t) -> if origin = Human then taint tr f.Llmsim.Fault.class_)
      prompt.Humanizer.refs
  in
  let give_up () = finish st false in
  let rec loop () =
    track_seen tr chat;
    round st rt chat ~out_of_budget:give_up ~stop:(fun _ -> give_up ()) @@ fun draft ->
    let stage v input = stage st rt chat v input ~sent:taint_refs ~retry:loop ~stop:give_up in
    stage suite.Resilience.Suite.parse (Batfish.Parse_check.Junos, draft) ~name:"syntax"
      ~findings:syntax_errors ~prompt:Humanizer.of_diag
    @@ fun (ir, _) ->
    stage suite.Resilience.Suite.campion (original, (draft, ir)) ~name:"campion" ~findings:Fun.id
      ~prompt:Humanizer.of_campion
    @@ fun _ -> finish st true
  in
  let transcript = loop () in
  pre_taint tr;
  let final = Llmsim.Chat.hashed_draft chat in
  let verified =
    transcript.converged
    &&
    let ir, diags = Exec.Memo.check_draft Batfish.Parse_check.Junos final in
    first_error diags = None
    && Resilience.Verifier.oracle suite.Resilience.Suite.campion (original, (final, ir)) = []
  in
  { transcript; final_text = final.Netcore.Draft.text; outcomes = outcomes_of tr chat; verified }

let table2_faults ~cisco_text =
  let cisco_ir, _ = Cisco.Parser.parse cisco_text in
  let correct = Juniper.Translate.of_cisco_ir cisco_ir in
  let opportunities = Llmsim.Fault.opportunities Llmsim.Fault.Junos_cfg correct in
  let first cls =
    List.find_opt
      (fun (f : Llmsim.Fault.t) -> Llmsim.Error_class.equal f.Llmsim.Fault.class_ cls)
      opportunities
  in
  List.filter_map first
    [
      Llmsim.Error_class.Missing_local_as;
      Llmsim.Error_class.Missing_import_policy;
      Llmsim.Error_class.Missing_export_policy;
      Llmsim.Error_class.Ospf_cost_wrong;
      Llmsim.Error_class.Ospf_passive_wrong;
      Llmsim.Error_class.Wrong_med;
      Llmsim.Error_class.Prefix_range_dropped;
      Llmsim.Error_class.Redistribution_unscoped;
    ]

(* ------------------------------------------------------------------ *)
(* Use case 2: no-transit synthesis                                    *)
(* ------------------------------------------------------------------ *)

type final_check = Simulate | Prove | Both

type synthesis_result = {
  transcript : transcript;
  configs : (string * Config_ir.t) list;
  per_router_verified : (string * bool) list;
  global_ok : bool;
  global_violations : string list;
  proof : Lightyear.result option;
}

(* The whole-network check: the paper's BGP simulation, the Lightyear
   proof, or both. Its answer is [((ok, violations), proof)]. *)
let check_global_uncached final_check star configs =
  let sim () = Modularizer.no_transit_holds star configs in
  let prove () = Lightyear.prove_no_transit star configs in
  let describe = function
    | Lightyear.Proved -> []
    | Lightyear.Refuted r ->
        [
          Printf.sprintf "modular proof refuted: a route from %s can reach %s"
            r.Lightyear.from_spoke r.Lightyear.to_spoke;
        ]
    | Lightyear.Inapplicable why -> [ "proof inapplicable: " ^ why ]
  in
  match final_check with
  | Simulate -> (sim (), None)
  | Prove ->
      let p = prove () in
      ((p = Lightyear.Proved, describe p), Some p)
  | Both ->
      let ok_sim, v_sim = sim () in
      let p = prove () in
      ((ok_sim && p = Lightyear.Proved, v_sim @ describe p), Some p)

(* The sim reads the star and every config, the proof the star and the hub,
   so one key serves both. The global phase re-checks a network in which
   only the hub changed, and every loop over one star ends on the same few
   networks. The star is hashed by its spoke count, as {!Modularizer.plan}'s
   table does, and each config separately, since [Hashtbl.hash] of the list
   would stop within the first router. *)
module Globals = Netcore.Memo_table.Make (struct
  type t = final_check * Netcore.Star.t * (string * Config_ir.t) list

  let hash (final_check, (star : Netcore.Star.t), configs) =
    List.fold_left
      (fun h (name, ir) -> Hashtbl.hash (h, name, Hashtbl.hash_param 100 1000 ir))
      (Hashtbl.hash (final_check, List.length star.Netcore.Star.spokes))
      configs
end)

(* A sweep ends on a handful of networks per star. *)
let globals = Globals.create ~name:"global_memo" ~cap:1024

let check_global final_check star configs =
  Globals.find globals (final_check, star, configs) (fun () ->
      check_global_uncached final_check star configs)

let run_no_transit ?(seed = 42) ?(use_iips = true)
    ?(max_prompts = no_transit_budget) ?(final_check = Simulate) ?pool
    ?(force_hub_faults = []) ?(resilience = Resilience.Runtime.default_config) ?adversary
    ?trust ?trust_ledger ~routers () =
  let stall_threshold = 2 in
  let star = Netcore.Star.make ~routers in
  let tasks = Modularizer.plan star in
  let iips = if use_iips then Iip.ids Iip.defaults else [] in
  let rt_main, suite_main, st =
    start_loop ~seed ~resilience ~adversary ?trust ?trust_ledger ~max_prompts
      ~stall_threshold
      ~prompt:
        (Printf.sprintf
           "Make a %d-router star network follow the no-transit policy: no two ISPs \
            should be able to reach each other, but all ISPs should reach the \
            CUSTOMER and vice versa."
           routers)
      ~note:"initial task prompt" ()
  in
  (* One local verification pass for a router: syntax, then topology, then
     local policy semantics. [st] is the loop state charged for the prompts:
     the run-wide one during the global phase, a per-router one during the
     fan-out (merged back on join so the accounting is identical whether
     the routers run sequentially or on a pool). *)
  let local_loop st (suite : Resilience.Suite.t) (task : Modularizer.router_task) chat =
    let rt = suite.Resilience.Suite.runtime in
    let rec loop () =
      round st rt chat
        ~out_of_budget:(fun () -> (Llmsim.Chat.hashed_draft chat, false))
        ~stop:(fun draft -> (draft, false))
      @@ fun draft ->
      let stage v input = stage st rt chat v input ~retry:loop ~stop:(fun () -> (draft, false)) in
      stage suite.Resilience.Suite.parse (Batfish.Parse_check.Cisco_ios, draft) ~name:"syntax"
        ~findings:syntax_errors ~prompt:Humanizer.of_diag
      @@ fun (ir, _) ->
      stage suite.Resilience.Suite.topology
        (star.Netcore.Star.topology, task.Modularizer.router, draft, ir)
        ~name:"topology" ~findings:Fun.id ~prompt:Humanizer.of_topology
      @@ fun _ ->
      stage suite.Resilience.Suite.route_policies (draft, task.Modularizer.specs) ~name:"semantic"
        ~findings:Batfish.Search_route_policies.violations ~prompt:Humanizer.of_violation
      @@ fun _ -> (draft, true)
    in
    loop ()
  in
  (* The IR of a router's final draft. The local loop has usually parsed
     that draft already, so this is a memo hit. The memo holds the parser's
     own output, never a stage value an adversary lens may have rewritten. *)
  let final_ir draft = fst (Exec.Memo.check_draft Batfish.Parse_check.Cisco_ios draft) in
  (* Each router is an independent task: its own chat, its own derived seed,
     its own loop state (budget = what is left after the initial prompt).
     That makes the fan-out embarrassingly parallel — Lightyear's
     observation about per-router checks — while the join below merges the
     accounting in task order, so pool and sequential runs are
     bit-identical. *)
  (* The remaining budget is split evenly across the fan-out: each router
     task loops against its own share, so even under an injected fault
     schedule that burns prompts on every router the merged transcript can
     never exceed [max_prompts] (the termination invariant the chaos sweep
     enforces). In fault-free runs a share is an order of magnitude more
     than any router uses, so transcripts are unchanged. *)
  let router_budget = max 0 ((max_prompts - (st.auto + st.human)) / List.length tasks) in
  let synthesize_router (idx, (task : Modularizer.router_task)) =
    let sub =
      new_loop
        ~adversary:(adv_derive st.adversary idx)
        ~trust:(Option.map Resilience.Trust.derive st.trust)
        ~max_prompts:router_budget ~stall_threshold
    in
    let force_faults =
      if task.Modularizer.router = star.Netcore.Star.hub then force_hub_faults
      else []
    in
    let chat =
      Llmsim.Chat.start ~seed:(seed + (idx * 7919)) ~iips ~force_faults
        Llmsim.Fault.Cisco_cfg ~correct:task.Modularizer.correct
    in
    (* Each task gets an independent derived resilience context (fresh
       clock, breakers, fault streams) so the fan-out is deterministic on a
       pool and one router's outage never trips a sibling's breaker. *)
    let suite = Resilience.Suite.make (Resilience.Runtime.derive rt_main idx) in
    arm_suite_lies sub.adversary suite;
    (* The modularizer's per-router prompt is machine-generated: automated.
       Recorded only while the share has budget, so a starved fan-out still
       respects the run-wide prompt ceiling. *)
    if budget_left sub then
      record sub Auto task.Modularizer.prompt
        (Printf.sprintf "modularizer prompt for %s" task.Modularizer.router);
    let final_draft, ok = local_loop sub suite task chat in
    let ir = final_ir final_draft in
    (task.Modularizer.router, chat, ir, ok, sub)
  in
  let indexed = List.mapi (fun i t -> (i, t)) tasks in
  let fanned =
    match pool with
    | Some p -> Exec.Pool.map p synthesize_router indexed
    | None -> Exec.Pool.map_seq synthesize_router indexed
  in
  List.iter (fun (_, _, _, _, sub) -> absorb st sub) fanned;
  let results = List.map (fun (name, chat, ir, ok, _) -> (name, chat, ir, ok)) fanned in
  let all_ok = List.for_all (fun (_, _, _, ok) -> ok) results in
  let configs_of results = List.map (fun (name, _, ir, _) -> (name, ir)) results in
  (* Global phase: when every router verifies locally but the whole-network
     check fails, feed the counterexample back to the hub conversation
     (crossed attachments are the only fault that survives local
     verification) and re-verify the hub locally after each prompt. *)
  (* The hub is looked up by name, not by position: the modularizer plans
     every router of the star, the hub among them. *)
  let hub_name = star.Netcore.Star.hub in
  let hub_task =
    List.find (fun (t : Modularizer.router_task) -> t.Modularizer.router = hub_name) tasks
  in
  let hub_chat results =
    let _, chat, _, _ = List.find (fun (name, _, _, _) -> name = hub_name) results in
    chat
  in
  (* The whole-network check is itself wrapped: when it degrades, the human
     runs the simulation by hand and the counterexample feedback arrives as
     a human prompt. *)
  let global_verifier =
    global_verifier rt_main st.adversary (check_global final_check star)
  in
  let rec global_phase results rounds =
    Resilience.Runtime.new_round rt_main;
    match run_stage st rt_main global_verifier (configs_of results) with
    | Crashed crash ->
        (* The whole-network check aborted on these configs: surface the
           crash to the hub conversation as a rewrite prompt and re-check,
           within the same round bound as ordinary counterexamples. *)
        let crashed () =
          (results, false, [ Resilience.Guard.crash_to_string crash ], None)
        in
        if rounds = 0 || not (budget_left st) then crashed ()
        else
          on_crash st (hub_chat results) crash
            ~k:(fun () -> global_phase results (rounds - 1))
            ~stop:crashed
    | (Checked ((ok, violations), proof) | Hand_checked ((ok, violations), proof)) as checked
      -> (
    if ok || rounds = 0 || not (budget_left st) then (results, ok, violations, proof)
    else if observe_findings st ~stage:"global" ~findings:(List.length violations) then
      (results, ok, violations, proof)
    else
      let hub_chat = hub_chat results in
      let prompt = Humanizer.of_global_violations ~hub:hub_name violations in
      let resynthesize () =
        let draft, local_ok = local_loop st suite_main hub_task hub_chat in
        let ir = final_ir draft in
        let results =
          List.map
            (fun ((name, chat, _, _) as r) ->
              if name = hub_name then (name, chat, ir, local_ok) else r)
            results
        in
        global_phase results (rounds - 1)
      in
      match
        deliver st hub_chat ~degraded:(hand_checked checked) prompt ~note:"global"
      with
      | `Gave_up -> (results, ok, violations, proof)
      | `Sent _ -> resynthesize ()
      | `Dropped ->
          (* The counterexample never reached the hub: nothing changed, so
             re-checking without re-synthesis just burns a round. *)
          global_phase results (rounds - 1))
  in
  let results, global_ok, global_violations, proof =
    if all_ok then global_phase results 12
    else (results, false, [ "per-router verification incomplete" ], None)
  in
  let per_router_verified = List.map (fun (name, _, _, ok) -> (name, ok)) results in
  {
    transcript = finish st (List.for_all snd per_router_verified && global_ok);
    configs = configs_of results;
    per_router_verified;
    global_ok;
    global_violations;
    proof;
  }

(* ------------------------------------------------------------------ *)
(* Extension: incremental policy addition                              *)
(* ------------------------------------------------------------------ *)

type incremental_result = {
  inc_transcript : transcript;
  hub_config : Config_ir.t;
  specs_hold : bool;
  global_ok : bool;
  interference_caught : bool;
}

let run_incremental ?(seed = 42) ?(max_prompts = incremental_budget)
    ?(resilience = Resilience.Runtime.default_config) ?adversary ?trust ?trust_ledger
    ~routers () =
  let stall_threshold = 2 in
  let star = Netcore.Star.make ~routers in
  (* The new policy: prepend the hub AS twice on routes exported to R2. *)
  let task = Modularizer.prepend_task star ~target:"R2" ~prepend:[ 1; 1 ] in
  let base_configs =
    List.map
      (fun (t : Modularizer.router_task) -> (t.Modularizer.router, t.Modularizer.correct))
      (Modularizer.plan star)
  in
  let rt, suite, st =
    start_loop ~seed ~resilience ~adversary ?trust ?trust_ledger ~max_prompts
      ~stall_threshold ~prompt:task.Modularizer.prompt ~note:"incremental task prompt" ()
  in
  let interference = ref false in
  (* The LLM edits an already-correct configuration: only the edit-related
     mistake classes apply. *)
  let edit_classes cls =
    match cls with
    | Llmsim.Error_class.Policy_inserted_early | Llmsim.Error_class.Wrong_policy_modified ->
        true
    | _ -> false
  in
  let chat =
    Llmsim.Chat.start ~seed ~class_filter:edit_classes Llmsim.Fault.Cisco_cfg
      ~correct:task.Modularizer.correct
  in
  (* A broken pre-existing local policy (anything but the new prepend) is
     the verifier catching interference with the verified configuration;
     it is flagged before the watchdog looks. *)
  let violations outcomes =
    let vs = Batfish.Search_route_policies.violations outcomes in
    (match vs with
    | v :: _ -> (
        match v.Batfish.Search_route_policies.spec.requirement with
        | Denies | Permits | Adds_community _ -> interference := true
        | Prepends _ -> ())
    | [] -> ());
    vs
  in
  let rec loop () =
    round st rt chat ~out_of_budget:(fun () -> false) ~stop:(fun _ -> false) @@ fun draft ->
    let stage v input = stage st rt chat v input ~retry:loop ~stop:(fun () -> false) in
    stage suite.Resilience.Suite.parse (Batfish.Parse_check.Cisco_ios, draft) ~name:"syntax"
      ~findings:syntax_errors ~prompt:Humanizer.of_diag
    @@ fun _ ->
    stage suite.Resilience.Suite.route_policies (draft, task.Modularizer.specs) ~name:"semantic"
      ~findings:violations ~prompt:Humanizer.of_violation
    @@ fun _ -> true
  in
  let specs_hold = loop () in
  let hub_config =
    fst (Exec.Memo.check_draft Batfish.Parse_check.Cisco_ios (Llmsim.Chat.hashed_draft chat))
  in
  let configs =
    (star.Netcore.Star.hub, hub_config)
    :: List.remove_assoc star.Netcore.Star.hub base_configs
  in
  (* The closing whole-network check runs under the same resilience
     boundary as the no-transit driver's global phase: a crashed BGP sim
     degrades to the human running it by hand (a [Degraded] event), never
     an unchecked exception. The short-circuit stays — when the specs
     already failed there is nothing worth simulating. *)
  let global_verifier = global_verifier rt st.adversary (check_global Simulate star) in
  let global_ok =
    specs_hold
    &&
    (Resilience.Runtime.new_round rt;
     match run_stage st rt global_verifier configs with
     | Crashed crash ->
         (* No re-synthesis loop here: the closing check aborting on these
            configs is a failed verification, recorded as such. *)
         ignore (send st chat (Humanizer.of_crash crash) ~note:"crash");
         false
     | Checked ((ok, _), _) | Hand_checked ((ok, _), _) -> ok)
  in
  {
    inc_transcript = finish st (specs_hold && global_ok);
    hub_config;
    specs_hold;
    global_ok;
    interference_caught = !interference;
  }
