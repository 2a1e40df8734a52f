(* The totality properties: every stage of the pipeline, run on arbitrary
   mutated config text behind the Guard firewall. Any [Error] from Guard —
   or a broken print/parse fixpoint — is an escape the F1 gate fails on. *)

type violation = {
  property : string;
  stage : string;
  constructor : string;
  detail : string;
}

type escape = {
  dialect : Corpus.dialect;
  violation : violation;
  fingerprint : string;
  seed : int;  (** [-1] for corpus replays. *)
  round : int;
  input : string;
  minimized : string;
}

let escape_to_string e =
  Printf.sprintf "[%s] %s: %s in %s (%s) seed=%d round=%d input=%s (%dB, min %dB)"
    (Corpus.dialect_name e.dialect)
    e.violation.property e.violation.constructor e.violation.stage
    e.violation.detail e.seed e.round e.fingerprint (String.length e.input)
    (String.length e.minimized)

let parse_fn = function
  | Corpus.Cisco -> Cisco.Parser.parse
  | Corpus.Junos -> Juniper.Parser.parse

let print_fn = function
  | Corpus.Cisco -> Cisco.Printer.print
  | Corpus.Junos -> Juniper.Printer.print

let guard ~label ~input f =
  Resilience.Guard.run ~label
    ~fingerprint:(Resilience.Guard.fingerprint_string input)
    f

(* The sims run the fuzzed parse as one spoke of a 3-router star, with the
   stock reference as the hub — arbitrary configs inside a well-formed
   topology, which is exactly what the VPP global phase feeds them. *)
let sim_net ir =
  let star = Netcore.Star.make ~routers:3 in
  {
    Batfish.Net.topology = star.Netcore.Star.topology;
    configs = [ (star.Netcore.Star.hub, Corpus.reference_ir Corpus.Cisco); ("R2", ir) ];
  }

let check dialect s =
  let dname = Corpus.dialect_name dialect in
  let violations = ref [] in
  let fail property stage constructor detail =
    violations := { property; stage; constructor; detail } :: !violations
  in
  let crash property (c : Resilience.Guard.crash) =
    fail property c.Resilience.Guard.stage c.Resilience.Guard.constructor
      c.Resilience.Guard.message
  in
  (match guard ~label:(dname ^ "-parse") ~input:s (fun () -> parse_fn dialect s) with
  | Error c -> crash "total-parse" c
  | Ok (ir, diags) ->
      (* Round trip: print the parse, reparse, reprint — the two printed
         forms must agree when the first parse was clean (parse∘print is a
         fixpoint on the parser's own output). *)
      (if not (List.exists Netcore.Diag.is_error diags) then
         match guard ~label:(dname ^ "-print") ~input:s (fun () -> print_fn dialect ir) with
         | Error c -> crash "total-print" c
         | Ok printed -> (
             match
               guard ~label:(dname ^ "-reparse") ~input:printed (fun () ->
                   parse_fn dialect printed)
             with
             | Error c -> crash "print-reparse" c
             | Ok (ir2, _) -> (
                 match
                   guard ~label:(dname ^ "-reprint") ~input:printed (fun () ->
                       print_fn dialect ir2)
                 with
                 | Error c -> crash "print-reparse" c
                 | Ok printed2 ->
                     if printed2 <> printed then
                       fail "print-fixpoint" (dname ^ "-print") "Fixpoint_violation"
                         (Printf.sprintf
                            "print/reparse/print drifted (%dB vs %dB)"
                            (String.length printed) (String.length printed2)))));
      (* The differ must accept any guarded parse on either side. *)
      let reference = Corpus.reference_ir dialect in
      (match
         guard ~label:"campion-diff" ~input:s (fun () ->
             ignore (Campion.Differ.compare ~original:reference ~translation:ir);
             ignore (Campion.Differ.compare ~original:ir ~translation:reference))
       with
      | Error c -> crash "total-differ" c
      | Ok () -> ());
      (* Both sims must converge (or reject structurally) on any guarded
         parse placed into a well-formed topology. *)
      let net = sim_net ir in
      (match guard ~label:"bgp-sim" ~input:s (fun () -> ignore (Batfish.Bgp_sim.run net)) with
      | Error c -> crash "total-bgp-sim" c
      | Ok () -> ());
      match guard ~label:"ospf-sim" ~input:s (fun () -> ignore (Batfish.Ospf_sim.run net)) with
      | Error c -> crash "total-ospf-sim" c
      | Ok () -> ());
  List.rev !violations

(* Minimize against "the same property still fails at the same stage". *)
let still_failing_pred dialect (v : violation) s =
  List.exists
    (fun v' -> v'.property = v.property && v'.stage = v.stage)
    (check dialect s)

let finalize ?(minimize = true) ?(max_checks = 800) dialect ~seed ~round input v =
  {
    dialect;
    violation = v;
    fingerprint = Resilience.Guard.fingerprint_string input;
    seed;
    round;
    input;
    minimized =
      (if minimize then
         Shrink.minimize ~max_checks ~still_failing:(still_failing_pred dialect v) input
       else input);
  }

type report = { dialect : Corpus.dialect; inputs : int; escapes : escape list }

(* Only the first few escapes get the (expensive) minimizer; the rest are
   reported raw — by then the gate has already failed. *)
let minimize_cap = 5

(* The campaign loop, generic over the checker and corpus so the topology
   and policy targets reuse it. With [?schedule] the mutants come from the
   weighted schedule and each crashing input pays its operators: 1 point
   each, 2 when the input opened a (stage, constructor) bucket this
   campaign had not seen. Without a schedule the loop is exactly the
   uniform fuzzer. *)
let run_campaign ?schedule dialect ~checker ~corpus ~seeds ~mutations =
  let inputs = ref 0 and escapes = ref [] and minimized = ref 0 in
  let seen_buckets = Hashtbl.create 16 in
  let still_failing (v : violation) s =
    List.exists (fun v' -> v'.property = v.property && v'.stage = v.stage) (checker s)
  in
  let finalize_v ~seed ~round m v =
    let do_min = !minimized < minimize_cap in
    if do_min then incr minimized;
    {
      dialect;
      violation = v;
      fingerprint = Resilience.Guard.fingerprint_string m;
      seed;
      round;
      input = m;
      minimized =
        (if do_min then Shrink.minimize ~max_checks:800 ~still_failing:(still_failing v) m
         else m);
    }
  in
  List.iter
    (fun seed ->
      for round = 0 to mutations - 1 do
        incr inputs;
        let m, ops_used =
          match schedule with
          | None -> (Mutator.mutant ~seed ~round ~corpus, [])
          | Some h -> Mutator.weighted_mutant ~seed ~round ~corpus ~history:h
        in
        let vs = checker m in
        (match (schedule, vs) with
        | Some h, _ :: _ ->
            let fresh =
              List.exists
                (fun (v : violation) ->
                  let key = (v.stage, v.constructor) in
                  if Hashtbl.mem seen_buckets key then false
                  else begin
                    Hashtbl.replace seen_buckets key ();
                    true
                  end)
                vs
            in
            List.iter (fun op -> Mutator.reward h ~op (if fresh then 2 else 1)) ops_used
        | _ -> ());
        List.iter (fun v -> escapes := finalize_v ~seed ~round m v :: !escapes) vs
      done)
    seeds;
  { dialect; inputs = !inputs; escapes = List.rev !escapes }

let run ?schedule dialect ~seeds ~mutations =
  run_campaign ?schedule dialect ~checker:(check dialect) ~corpus:(Corpus.texts dialect)
    ~seeds ~mutations

(* ------------------------------------------------------------------ *)
(* Structured-text targets: topology dictionaries, policy fragments     *)
(* ------------------------------------------------------------------ *)

let crash_violation property (c : Resilience.Guard.crash) =
  {
    property;
    stage = c.Resilience.Guard.stage;
    constructor = c.Resilience.Guard.constructor;
    detail = c.Resilience.Guard.message;
  }

(* The topology verifier consumes an arbitrary JSON text: a parse failure
   must come back as [Error], a parseable dictionary must verify (or
   structurally reject) any router against any config, and neither step may
   raise. *)
let check_topology s =
  let violations = ref [] in
  let crash property c = violations := crash_violation property c :: !violations in
  (match guard ~label:"topology-json" ~input:s (fun () -> Netcore.Json.of_string s) with
  | Error c -> crash "total-topology-json" c
  | Ok (Error _) -> ()
  | Ok (Ok json) -> (
      let ir = Corpus.reference_ir Corpus.Cisco in
      match
        guard ~label:"topology-verify" ~input:s (fun () ->
            ignore (Topoverify.Verifier.check_from_json json ~router:"R1" ir);
            ignore (Topoverify.Verifier.check_from_json json ~router:"R9" ir))
      with
      | Error c -> crash "total-topoverify" c
      | Ok () -> ()));
  List.rev !violations

(* Specs for the policy target: written against the route maps in
   {!Corpus.policy_seeds}, but total against whatever the mutant actually
   parses to — a renamed map is just [Policy_missing]. *)
let policy_specs =
  lazy
    (List.map
       (fun (policy, requirement) ->
         {
           Batfish.Search_route_policies.policy;
           space = Symbolic.Pred.full;
           requirement;
           description = "any route";
         })
       [
         ("from_customer", Batfish.Search_route_policies.Permits);
         ("to_provider", Batfish.Search_route_policies.Denies);
         ("from_provider", Batfish.Search_route_policies.Permits);
       ])

let check_policy s =
  let violations = ref [] in
  let crash property c = violations := crash_violation property c :: !violations in
  (match guard ~label:"policy-parse" ~input:s (fun () -> Cisco.Parser.parse s) with
  | Error c -> crash "total-policy-parse" c
  | Ok (ir, _) -> (
      match
        guard ~label:"policy-check" ~input:s (fun () ->
            ignore (Batfish.Search_route_policies.check_all ir (Lazy.force policy_specs)))
      with
      | Error c -> crash "total-policy-check" c
      | Ok () -> ()));
  List.rev !violations

let run_topology ?schedule ~seeds ~mutations () =
  run_campaign ?schedule Corpus.Cisco ~checker:check_topology
    ~corpus:(Corpus.topology_seeds ()) ~seeds ~mutations

let run_policy ?schedule ~seeds ~mutations () =
  run_campaign ?schedule Corpus.Cisco ~checker:check_policy
    ~corpus:(Corpus.policy_seeds ()) ~seeds ~mutations

(* ------------------------------------------------------------------ *)
(* Loop-level totality: corrupted findings, the full loop under attack  *)
(* ------------------------------------------------------------------ *)

(* Realistic humanizer outputs the corruption layer then mangles — the
   mutator starts from text shaped like what the drivers actually emit. *)
let finding_messages =
  [
    "There is a syntax error: 'route-map from_customer permit'";
    "The route-map to_provider permits routes that have the community 100:1. \
     However, they should be denied.";
    "The interface GigabitEthernet0/0 has address 10.0.12.1 but the topology \
     dictionary specifies 10.0.12.2.";
    "The neighbor 10.0.12.2 is missing from the BGP configuration.";
    "[human] Rewrite the to_provider route map from scratch.";
  ]

let fuzz_corrupted_findings ~mode ~seed ~cases =
  let config =
    Adversary.Findings.with_rate (Adversary.Findings.make ~seed ()) mode 1.0
  in
  let fsim = Adversary.Findings.create config in
  let junos_ir = Corpus.reference_ir Corpus.Junos in
  let refs =
    match Llmsim.Fault.opportunities Llmsim.Fault.Junos_cfg junos_ir with
    | [] -> []
    | f :: _ -> [ f ]
  in
  let violations = ref [] in
  let crash property c = violations := crash_violation property c :: !violations in
  for round = 0 to cases - 1 do
    let text = Mutator.mutant ~seed ~round ~corpus:finding_messages in
    let pairs =
      match
        guard ~label:"findings-corrupt" ~input:text (fun () ->
            Adversary.Findings.corrupt fsim ~text ~refs)
      with
      | Error c ->
          crash "total-corrupt" c;
          []
      | Ok pairs -> pairs
    in
    List.iter
      (fun (text', refs') ->
        (* The humanizer templates must accept a garbled diagnostic. *)
        (match
           guard ~label:"humanizer-of-diag" ~input:text' (fun () ->
               ignore (Cosynth.Humanizer.of_diag (Netcore.Diag.error text')))
         with
        | Error c -> crash "total-humanizer" c
        | Ok () -> ());
        (* And the chat (the loop's consumer) must absorb the corrupted
           prompt without raising. *)
        match
          guard ~label:"chat-respond" ~input:text' (fun () ->
              let chat =
                Llmsim.Chat.start ~seed Llmsim.Fault.Junos_cfg ~correct:junos_ir
              in
              Llmsim.Chat.respond chat
                { Llmsim.Chat.text = text'; refs = refs'; strength = Llmsim.Chat.Auto })
        with
        | Error c -> crash "total-chat-respond" c
        | Ok () -> ())
      pairs
  done;
  List.rev !violations

let loop_budget = 40

let fuzz_loop ~mode ~seed ~rate =
  let llm = Adversary.Llm.with_rate (Adversary.Llm.make ~seed ()) mode rate in
  let adversary = Adversary.Spec.make ~llm () in
  match
    Resilience.Guard.run ~label:"vpp-loop" ~fingerprint:(string_of_int seed) (fun () ->
        Cosynth.Driver.run_translation ~seed ~max_prompts:loop_budget ~adversary
          ~cisco_text:Cisco.Samples.border_router ())
  with
  | Error c -> [ crash_violation "total-loop" c ]
  | Ok r ->
      List.map
        (fun detail ->
          { property = "loop-contract"; stage = "vpp-loop"; constructor = "Invariant"; detail })
        (Cosynth.Driver.run_violations ~budget:loop_budget
           ~hardened:(not (Adversary.Spec.is_none adversary))
           r.Cosynth.Driver.transcript)

(* ------------------------------------------------------------------ *)
(* Regression corpus replay                                            *)
(* ------------------------------------------------------------------ *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let dialect_of_filename name =
  if String.starts_with ~prefix:"junos-" name then Corpus.Junos else Corpus.Cisco

(* A promoted crasher's name, modulo the dialect prefix replay keys on. *)
let is_promoted_filename name =
  let base =
    if String.starts_with ~prefix:"junos-" name then
      String.sub name 6 (String.length name - 6)
    else name
  in
  String.starts_with ~prefix:"promoted-" base

let replay_dir dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then []
  else
    let all =
      Sys.readdir dir |> Array.to_list |> List.sort compare
      |> List.filter (fun f -> Filename.check_suffix f ".txt")
    in
    (* Promoted entries replay first: the youngest regressions are the most
       likely to resurface, so a broken gate fails on them before spending
       the budget on the long-stable hand-written seeds. *)
    let promoted, stable = List.partition is_promoted_filename all in
    promoted @ stable
    |> List.map (fun f ->
           let s = read_file (Filename.concat dir f) in
           let dialect = dialect_of_filename f in
           let escapes =
             List.map
               (fun v -> finalize ~minimize:false dialect ~seed:(-1) ~round:(-1) s v)
               (check dialect s)
           in
           (f, escapes))

(* ------------------------------------------------------------------ *)
(* Corpus promotion                                                    *)
(* ------------------------------------------------------------------ *)

(* One file per (stage, constructor) triage bucket, the bucket slug baked
   into the filename so promotion stays idempotent across campaigns without
   replaying the directory to find out what it already covers. *)
let bucket_slug (v : violation) =
  let slug s =
    String.concat "-"
      (List.filter
         (fun part -> part <> "")
         (String.split_on_char '-'
            (String.map
               (fun c ->
                 match Char.lowercase_ascii c with
                 | ('a' .. 'z' | '0' .. '9') as c -> c
                 | _ -> '-')
               s)))
  in
  slug (v.stage ^ "-" ^ v.constructor)

let promoted_filename (e : escape) =
  let prefix = match e.dialect with Corpus.Junos -> "junos-" | Corpus.Cisco -> "" in
  prefix ^ "promoted-" ^ bucket_slug e.violation ^ ".txt"

let promote ~dir escapes =
  if escapes <> [] && not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let covered = Hashtbl.create 16 in
  (if Sys.file_exists dir && Sys.is_directory dir then
     Array.iter
       (fun f ->
         if is_promoted_filename f && Filename.check_suffix f ".txt" then
           let base =
             if String.starts_with ~prefix:"junos-" f then
               String.sub f 6 (String.length f - 6)
             else f
           in
           Hashtbl.replace covered (Filename.chop_suffix base ".txt") ())
       (Sys.readdir dir));
  List.filter_map
    (fun e ->
      let key = "promoted-" ^ bucket_slug e.violation in
      if Hashtbl.mem covered key then None
      else begin
        let name = promoted_filename e in
        (* Atomic (temp + fsync + rename): a crash mid-promotion leaves
           either no file or the whole crasher, never a truncated seed
           F1 would then replay as a bogus corpus entry. The leftover
           [*.tmp] a crash can leave is invisible to [replay_dir] (no
           [.txt] suffix). The bucket is marked covered only on success,
           so a failed write retries on the campaign's next escape. *)
        if Durable.Store.write_atomic (Filename.concat dir name) e.minimized
        then begin
          Hashtbl.replace covered key ();
          Some (name, e)
        end
        else None
      end)
    escapes

(* ------------------------------------------------------------------ *)
(* The planted-bug canary                                              *)
(* ------------------------------------------------------------------ *)

(* A deliberately buggy parser front end: raises on any non-ASCII byte.
   The fuzzer must find it, the shrinker must reduce the trigger to a
   handful of bytes, and the report must carry stage + constructor +
   fingerprint — the end-to-end demonstration that a real parser bug
   cannot hide. *)
let planted_parse s =
  if String.exists (fun c -> Char.code c >= 0x80) s then
    failwith "planted parser bug: choked on a non-ASCII byte"
  else ignore (Cisco.Parser.parse s)

let canary ?(max_rounds = 2000) () =
  let corpus = Corpus.texts Corpus.Cisco in
  let crashes s =
    match
      guard ~label:"cisco-parse/planted" ~input:s (fun () -> planted_parse s)
    with
    | Ok () -> None
    | Error c -> Some c
  in
  let rec hunt round =
    if round >= max_rounds then None
    else
      let m = Mutator.mutant ~seed:1 ~round ~corpus in
      match crashes m with Some c -> Some (round, m, c) | None -> hunt (round + 1)
  in
  match hunt 0 with
  | None -> Error "canary: planted bug never triggered within the budget"
  | Some (round, input, c) ->
      let minimized =
        Shrink.minimize ~still_failing:(fun s -> crashes s <> None) input
      in
      Ok
        {
          dialect = Corpus.Cisco;
          violation =
            {
              property = "canary";
              stage = c.Resilience.Guard.stage;
              constructor = c.Resilience.Guard.constructor;
              detail = c.Resilience.Guard.message;
            };
          fingerprint = c.Resilience.Guard.fingerprint;
          seed = 1;
          round;
          input;
          minimized;
        }
