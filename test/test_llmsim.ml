(* Tests for the simulated GPT-4: fault opportunities and rendering, the
   conversation dynamics, and the table its drafts are kept in. *)

open Netcore
open Policy

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

(* One-fault prompts of each strength, shaped as the humanizer builds them. *)
let auto_prompt f = { Llmsim.Chat.text = ""; refs = [ f ]; strength = Auto }
let human_prompt f = { Llmsim.Chat.text = ""; refs = [ f ]; strength = Human }

let contains = Netcore.Substring.contains

(* ------------------------------------------------------------------ *)
(* Fault opportunities and rendering                                   *)
(* ------------------------------------------------------------------ *)

let border_ir = fst (Cisco.Parser.parse Cisco.Samples.border_router)
let correct_junos = Juniper.Translate.of_cisco_ir border_ir

let star = Star.make ~routers:4
let hub_task = List.hd (Cosynth.Modularizer.plan star)
let hub_correct = hub_task.Cosynth.Modularizer.correct

let has_class cls faults =
  List.exists
    (fun (f : Llmsim.Fault.t) -> Llmsim.Error_class.equal f.Llmsim.Fault.class_ cls)
    faults

let test_junos_opportunities () =
  let ops = Llmsim.Fault.opportunities Llmsim.Fault.Junos_cfg correct_junos in
  List.iter
    (fun cls ->
      check bool_t (Llmsim.Error_class.to_string cls) true (has_class cls ops))
    [
      Llmsim.Error_class.Missing_local_as;
      Llmsim.Error_class.Missing_import_policy;
      Llmsim.Error_class.Missing_export_policy;
      Llmsim.Error_class.Ospf_cost_wrong;
      Llmsim.Error_class.Ospf_passive_wrong;
      Llmsim.Error_class.Wrong_med;
      Llmsim.Error_class.Prefix_range_dropped;
      Llmsim.Error_class.Redistribution_unscoped;
    ];
  (* No synthesis-only classes in the translation artifact. *)
  check bool_t "no cli keywords" false (has_class Llmsim.Error_class.Cli_keywords ops)

let test_cisco_opportunities () =
  let ops = Llmsim.Fault.opportunities Llmsim.Fault.Cisco_cfg hub_correct in
  List.iter
    (fun cls ->
      check bool_t (Llmsim.Error_class.to_string cls) true (has_class cls ops))
    [
      Llmsim.Error_class.Cli_keywords;
      Llmsim.Error_class.Match_community_literal;
      Llmsim.Error_class.Community_not_additive;
      Llmsim.Error_class.And_or_confusion;
      Llmsim.Error_class.Wrong_local_as;
      Llmsim.Error_class.Missing_neighbor_decl;
      Llmsim.Error_class.Missing_network_decl;
    ]

let render_with cls target =
  Llmsim.Fault.render Llmsim.Fault.Junos_cfg correct_junos [ Llmsim.Fault.make cls target ]

let test_render_no_faults_is_clean () =
  let text = Llmsim.Fault.render Llmsim.Fault.Junos_cfg correct_junos [] in
  check bool_t "clean" true (Batfish.Parse_check.syntax_ok Batfish.Parse_check.Junos text)

let test_render_missing_local_as () =
  let text = render_with Llmsim.Error_class.Missing_local_as Llmsim.Fault.Whole_config in
  check bool_t "no autonomous-system line" false (contains ~sub:"autonomous-system" text);
  check bool_t "no local-as line" false (contains ~sub:"local-as" text);
  check bool_t "syntax error detected" false
    (Batfish.Parse_check.syntax_ok Batfish.Parse_check.Junos text)

let test_render_bad_prefix_list () =
  let text =
    render_with Llmsim.Error_class.Bad_prefix_list_syntax
      (Llmsim.Fault.Named_list "our-networks")
  in
  check bool_t "contains the /24-32 shorthand" true (contains ~sub:"1.2.3.0/24-32" text);
  let _, diags = Batfish.Parse_check.check Batfish.Parse_check.Junos text in
  check bool_t "targeted error" true
    (List.exists
       (fun d -> contains ~sub:"not valid Juniper syntax" (Diag.to_string d))
       diags)

let test_render_cli_keywords () =
  let text =
    Llmsim.Fault.render Llmsim.Fault.Cisco_cfg hub_correct
      [ Llmsim.Fault.make Llmsim.Error_class.Cli_keywords Llmsim.Fault.Whole_config ]
  in
  check bool_t "has configure terminal" true (contains ~sub:"configure terminal" text);
  let _, diags = Batfish.Parse_check.check Batfish.Parse_check.Cisco_ios text in
  check bool_t "flagged" true
    (List.exists (fun d -> contains ~sub:"CLI command" (Diag.to_string d)) diags)

let test_render_neighbor_outside_bgp () =
  let spoke_addr = Ipv4.of_string_exn "1.0.0.2" in
  let text =
    Llmsim.Fault.render Llmsim.Fault.Cisco_cfg hub_correct
      [
        Llmsim.Fault.make Llmsim.Error_class.Neighbor_outside_bgp
          (Llmsim.Fault.Neighbor spoke_addr);
      ]
  in
  let _, diags = Batfish.Parse_check.check Batfish.Parse_check.Cisco_ios text in
  check bool_t "flagged misplaced" true
    (List.exists
       (fun d -> contains ~sub:"only valid inside a 'router bgp'" (Diag.to_string d))
       diags)

let test_render_and_or_confusion () =
  let map = Cosynth.Modularizer.egress_map_name "R2" in
  let text =
    Llmsim.Fault.render Llmsim.Fault.Cisco_cfg hub_correct
      [ Llmsim.Fault.make Llmsim.Error_class.And_or_confusion (Llmsim.Fault.Policy map) ]
  in
  let ir, diags = Cisco.Parser.parse text in
  check int_t "still parses" 0 (List.length diags);
  let m = Option.get (Config_ir.find_route_map ir map) in
  (* All community matches merged into a single deny stanza. *)
  let denies =
    List.filter
      (fun (e : Route_map.entry) -> e.Route_map.action = Action.Deny)
      m.Route_map.entries
  in
  check int_t "one deny stanza" 1 (List.length denies);
  check int_t "two matches in it (AND)" 2 (List.length (List.hd denies).Route_map.matches)

let test_render_match_community_literal () =
  let map = Cosynth.Modularizer.egress_map_name "R2" in
  let text =
    Llmsim.Fault.render Llmsim.Fault.Cisco_cfg hub_correct
      [
        Llmsim.Fault.make Llmsim.Error_class.Match_community_literal
          (Llmsim.Fault.Policy_entry (map, 10));
      ]
  in
  let _, diags = Batfish.Parse_check.check Batfish.Parse_check.Cisco_ios text in
  check bool_t "literal flagged" true
    (List.exists
       (fun d -> contains ~sub:"'match community" (Diag.to_string d) && Diag.is_error d)
       diags)

(* The stanza header is matched on its tokens: RM1's "permit 100" stanza
   comes first and contains both "route-map RM" and " 10", but the fault
   targets RM's seq 10. *)
let test_render_match_community_literal_exact_stanza () =
  let ir, _ =
    Cisco.Parser.parse
      "hostname R\n\
       ip community-list standard CL1 permit 100:1\n\
       ip community-list standard CL2 permit 200:2\n\
       route-map RM1 permit 100\n\
      \ match community CL1\n\
       route-map RM permit 10\n\
      \ match community CL2\n"
  in
  let text =
    Llmsim.Fault.render Llmsim.Fault.Cisco_cfg ir
      [
        Llmsim.Fault.make Llmsim.Error_class.Match_community_literal
          (Llmsim.Fault.Policy_entry ("RM", 10));
      ]
  in
  check bool_t "RM1 keeps its list" true (contains ~sub:"permit 100\n match community CL1\n" text);
  check bool_t "RM matches the literal" true
    (contains ~sub:"route-map RM permit 10\n match community 200:2\n" text)

(* A run of these faults is applied in one pass, with what applying them one
   by one gives: a rewritten line is a match line again, so a second fault
   on the same stanza rewrites it once more (here through the community
   list named like the first literal), a fault on another stanza of the map
   leaves it, and a text fault between two runs sees the first run's
   lines. *)
let test_render_match_community_literal_runs () =
  let ir, _ =
    Cisco.Parser.parse
      "hostname R\n\
       ip community-list standard CL permit 7:7\n\
       ip community-list standard 7:7 permit 8:8\n\
       route-map RM permit 10\n\
      \ match community CL\n\
       route-map RM permit 20\n\
      \ match community CL\n"
  in
  let literal seq =
    Llmsim.Fault.make Llmsim.Error_class.Match_community_literal
      (Llmsim.Fault.Policy_entry ("RM", seq))
  in
  let render faults = Llmsim.Fault.render Llmsim.Fault.Cisco_cfg ir faults in
  let stanzas text =
    List.filter_map
      (fun seq ->
        List.find_map
          (fun lit ->
            if contains ~sub:(Printf.sprintf "permit %d\n match community %s\n" seq lit) text
            then Some lit
            else None)
          [ "CL"; "7:7"; "8:8"; "100:1" ])
      [ 10; 20 ]
  in
  let expect label faults want =
    check (Alcotest.list Alcotest.string) label want (stanzas (render faults))
  in
  expect "one fault" [ literal 10 ] [ "7:7"; "CL" ];
  expect "twice on one stanza" [ literal 10; literal 10 ] [ "8:8"; "CL" ];
  expect "three times" [ literal 10; literal 10; literal 10 ] [ "100:1"; "CL" ];
  expect "two stanzas" [ literal 20; literal 10; literal 20 ] [ "7:7"; "8:8" ];
  let cli = Llmsim.Fault.make Llmsim.Error_class.Cli_keywords Llmsim.Fault.Whole_config in
  let text = render [ literal 10; cli; literal 10 ] in
  check (Alcotest.list Alcotest.string) "runs split by another text fault" [ "8:8"; "CL" ]
    (stanzas text);
  check bool_t "and that fault applied" true (contains ~sub:"configure terminal\n" text)

let test_render_ir_fault_changes_semantics () =
  let map_name = Cosynth.Modularizer.ingress_map_name "R2" in
  let text =
    Llmsim.Fault.render Llmsim.Fault.Cisco_cfg hub_correct
      [
        Llmsim.Fault.make Llmsim.Error_class.Community_not_additive
          (Llmsim.Fault.Policy_entry (map_name, 10));
      ]
  in
  let ir, _ = Cisco.Parser.parse text in
  let m = Option.get (Config_ir.find_route_map ir map_name) in
  match (List.hd m.Route_map.entries).Route_map.sets with
  | [ Route_map.Set_community { additive; _ } ] -> check bool_t "not additive" false additive
  | _ -> Alcotest.fail "expected one set community"

(* ------------------------------------------------------------------ *)
(* Chat dynamics                                                       *)
(* ------------------------------------------------------------------ *)

let test_chat_deterministic () =
  let drafts seed =
    let chat = Llmsim.Chat.start ~seed Llmsim.Fault.Junos_cfg ~correct:correct_junos in
    Llmsim.Chat.draft chat
  in
  check bool_t "same seed same draft" true (drafts 5 = drafts 5)

let test_chat_iip_suppression () =
  let with_iip =
    Llmsim.Chat.start ~seed:5
      ~iips:[ "cfg-files-only"; "community-list-matching"; "additive-community" ]
      Llmsim.Fault.Cisco_cfg ~correct:hub_correct
  in
  check bool_t "no suppressed classes live" true
    (List.for_all
       (fun (f : Llmsim.Fault.t) ->
         match f.Llmsim.Fault.class_ with
         | Llmsim.Error_class.Cli_keywords | Llmsim.Error_class.Match_community_literal
         | Llmsim.Error_class.Community_not_additive ->
             false
         | _ -> true)
       (Llmsim.Chat.live_faults with_iip))

let test_chat_forced_faults_fixable () =
  let f = Llmsim.Fault.make Llmsim.Error_class.Missing_local_as Llmsim.Fault.Whole_config in
  let chat =
    Llmsim.Chat.start ~seed:5 ~force_faults:[ f ] ~suppress_random:true
      ~regression_rate:0.0 ~reintroduction_rate:0.0 Llmsim.Fault.Junos_cfg
      ~correct:correct_junos
  in
  check int_t "one live fault" 1 (List.length (Llmsim.Chat.live_faults chat));
  (* A human prompt always fixes (human_fix = 1.0). *)
  Llmsim.Chat.respond chat (human_prompt f);
  check int_t "fixed" 0 (List.length (Llmsim.Chat.live_faults chat));
  check int_t "recorded as fixed" 1 (List.length (Llmsim.Chat.fixed_faults chat))

let test_chat_auto_never_fixes_redistribution () =
  let f =
    Llmsim.Fault.make Llmsim.Error_class.Redistribution_unscoped Llmsim.Fault.Whole_config
  in
  let chat =
    Llmsim.Chat.start ~seed:5 ~force_faults:[ f ] ~suppress_random:true
      ~regression_rate:0.0 ~reintroduction_rate:0.0 Llmsim.Fault.Junos_cfg
      ~correct:correct_junos
  in
  for _ = 1 to 20 do
    Llmsim.Chat.respond chat (auto_prompt f)
  done;
  check int_t "still live after 20 auto prompts" 1
    (List.length (Llmsim.Chat.live_faults chat));
  Llmsim.Chat.respond chat (human_prompt f);
  check int_t "human fixes" 0 (List.length (Llmsim.Chat.live_faults chat))

let test_chat_prefix_range_morphs () =
  let f =
    Llmsim.Fault.make Llmsim.Error_class.Prefix_range_dropped
      (Llmsim.Fault.Named_list "our-networks")
  in
  let chat =
    Llmsim.Chat.start ~seed:5 ~force_faults:[ f ] ~suppress_random:true
      ~regression_rate:0.0 ~reintroduction_rate:0.0 Llmsim.Fault.Junos_cfg
      ~correct:correct_junos
  in
  (* Auto prompts never fix it directly; eventually it morphs into the bad
     prefix-list syntax. *)
  let rec poke n =
    if n = 0 then Alcotest.fail "never morphed in 50 prompts"
    else
      match Llmsim.Chat.live_faults chat with
      | [ f' ]
        when Llmsim.Error_class.equal f'.Llmsim.Fault.class_
               Llmsim.Error_class.Bad_prefix_list_syntax ->
          ()
      | _ ->
          Llmsim.Chat.respond chat (auto_prompt f);
          poke (n - 1)
  in
  poke 50;
  check bool_t "target preserved" true
    (match Llmsim.Chat.live_faults chat with
    | [ f' ] -> f'.Llmsim.Fault.target = Llmsim.Fault.Named_list "our-networks"
    | _ -> false)

let test_chat_unmatched_prompt_is_noop () =
  let f = Llmsim.Fault.make Llmsim.Error_class.Missing_local_as Llmsim.Fault.Whole_config in
  let chat =
    Llmsim.Chat.start ~seed:5 ~force_faults:[ f ] ~suppress_random:true
      Llmsim.Fault.Junos_cfg ~correct:correct_junos
  in
  let other = Llmsim.Fault.make Llmsim.Error_class.Wrong_med (Llmsim.Fault.Policy "nope") in
  Llmsim.Chat.respond chat (human_prompt other);
  check int_t "fault survives unrelated prompt" 1
    (List.length (Llmsim.Chat.live_faults chat))

let test_chat_regression_possible () =
  (* With regression rate 1.0, fixing a fault must introduce another. *)
  let f = Llmsim.Fault.make Llmsim.Error_class.Missing_local_as Llmsim.Fault.Whole_config in
  let chat =
    Llmsim.Chat.start ~seed:5 ~force_faults:[ f ] ~suppress_random:true
      ~regression_rate:1.0 ~reintroduction_rate:0.0 Llmsim.Fault.Junos_cfg
      ~correct:correct_junos
  in
  Llmsim.Chat.respond chat (human_prompt f);
  check bool_t "a new fault appeared" true (Llmsim.Chat.live_faults chat <> [])

let render_stats () = Netcore.Memo_table.stats "render_memo"

(* A chat reuses its last rendering while the live faults are unchanged.
   Drive both dialects through every path [respond] has, and after every
   step the draft must be exactly a fresh render of the live faults. *)
let test_chat_draft_reuse () =
  Netcore.Memo_table.reset ();
  let paths = Hashtbl.create 8 in
  let saw path = Hashtbl.replace paths path () in
  let mem f fs = List.exists (Llmsim.Fault.equal f) fs in
  let classify ~live ~fixed ~live' =
    let gone = List.filter (fun f -> not (mem f live')) live in
    let added = List.filter (fun f -> not (mem f live)) live' in
    let succeeds (g : Llmsim.Fault.t) (f : Llmsim.Fault.t) =
      g.Llmsim.Fault.target = f.Llmsim.Fault.target
      && (Llmsim.Error_class.profile g.Llmsim.Fault.class_).Llmsim.Error_class.successor
         = Some f.Llmsim.Fault.class_
    in
    if gone = [] && added = [] then saw "unchanged";
    List.iter
      (fun f ->
        if List.exists (fun g -> succeeds g f) gone then saw "morph"
        else if mem f fixed then saw "reintroduce"
        else saw "regress")
      added;
    if List.exists (fun g -> not (List.exists (succeeds g) added)) gone then saw "fix"
  in
  List.iter
    (fun (dialect, correct) ->
      for seed = 1 to 30 do
        let chat =
          Llmsim.Chat.start ~seed ~regression_rate:0.3 ~reintroduction_rate:0.3 dialect
            ~correct
        in
        let expect step =
          let fresh =
            Llmsim.Fault.render (Llmsim.Chat.dialect chat) (Llmsim.Chat.correct chat)
              (Llmsim.Chat.live_faults chat)
          in
          let label = Printf.sprintf "seed %d step %d" seed step in
          check Alcotest.string (label ^ ": draft") fresh (Llmsim.Chat.draft chat);
          check Alcotest.string (label ^ ": draft again") fresh (Llmsim.Chat.draft chat)
        in
        expect 0;
        let unmatched =
          Llmsim.Fault.make Llmsim.Error_class.Wrong_med (Llmsim.Fault.Policy "nope")
        in
        for step = 1 to 25 do
          let live = Llmsim.Chat.live_faults chat in
          let fixed = Llmsim.Chat.fixed_faults chat in
          let prompt =
            match (step mod 4, live) with
            | _, [] | 3, _ -> human_prompt unmatched
            | 0, _ -> human_prompt (List.nth live (List.length live - 1))
            | _, f :: _ -> auto_prompt f
          in
          Llmsim.Chat.respond chat prompt;
          classify ~live ~fixed ~live':(Llmsim.Chat.live_faults chat);
          expect step
        done
      done)
    [ (Llmsim.Fault.Junos_cfg, correct_junos); (Llmsim.Fault.Cisco_cfg, hub_correct) ];
  List.iter
    (fun path -> check bool_t (path ^ " path reached") true (Hashtbl.mem paths path))
    [ "unchanged"; "fix"; "regress"; "reintroduce"; "morph" ];
  check bool_t "drafts came from the shared table" true
    ((render_stats ()).Netcore.Memo_table.hits > 0)

(* ------------------------------------------------------------------ *)
(* The render table                                                    *)
(* ------------------------------------------------------------------ *)


(* A chat whose draft carries exactly [faults], in order. *)
let forced dialect correct faults =
  Llmsim.Chat.start ~suppress_random:true ~force_faults:faults dialect ~correct

(* Each part of the key — the correct IR, the dialect, the order of the live
   faults — tells two drafts apart: changing one is a miss that renders
   afresh, and repeating a key is a hit. *)
let test_render_memo_key () =
  Netcore.Memo_table.reset ();
  let spokes = List.tl (Cosynth.Modularizer.plan star) in
  let r2 = (List.nth spokes 0).Cosynth.Modularizer.correct in
  let r3 = (List.nth spokes 1).Cosynth.Modularizer.correct in
  let faults =
    match Llmsim.Fault.opportunities Llmsim.Fault.Cisco_cfg r2 with
    | f1 :: f2 :: _ -> [ f1; f2 ]
    | _ -> Alcotest.fail "a spoke offers two faults"
  in
  let draft label dialect correct faults ~miss =
    let s0 = render_stats () in
    let text = Llmsim.Chat.draft (forced dialect correct faults) in
    let s1 = render_stats () in
    check Alcotest.string (label ^ ": equals a fresh render")
      (Llmsim.Fault.render dialect correct faults)
      text;
    check int_t (label ^ ": misses")
      (s0.Netcore.Memo_table.misses + if miss then 1 else 0)
      s1.Netcore.Memo_table.misses;
    check int_t (label ^ ": hits")
      (s0.Netcore.Memo_table.hits + if miss then 0 else 1)
      s1.Netcore.Memo_table.hits;
    text
  in
  let a = draft "R2" Llmsim.Fault.Cisco_cfg r2 faults ~miss:true in
  ignore (draft "R2 again" Llmsim.Fault.Cisco_cfg r2 faults ~miss:false : string);
  let b = draft "R3, same faults" Llmsim.Fault.Cisco_cfg r3 faults ~miss:true in
  check bool_t "another IR, another text" true (a <> b);
  let c = draft "R2 in Junos" Llmsim.Fault.Junos_cfg r2 faults ~miss:true in
  check bool_t "another dialect, another text" true (a <> c);
  ignore (draft "R2, faults reversed" Llmsim.Fault.Cisco_cfg r2 (List.rev faults) ~miss:true
          : string)

(* Two domains drafting the same conversations race on one table. Alcotest
   is not domain-safe, so a domain raises a plain exception, which
   [Domain.join] re-raises here. *)
let test_render_memo_domains () =
  Netcore.Memo_table.reset ();
  let tasks =
    [ (Llmsim.Fault.Cisco_cfg, hub_correct); (Llmsim.Fault.Junos_cfg, correct_junos) ]
  in
  let work () =
    for seed = 1 to 20 do
      List.iter
        (fun (dialect, correct) ->
          let chat = Llmsim.Chat.start ~seed ~regression_rate:0.3 dialect ~correct in
          for step = 0 to 5 do
            let fresh = Llmsim.Fault.render dialect correct (Llmsim.Chat.live_faults chat) in
            if Llmsim.Chat.draft chat <> fresh then
              failwith
                (Printf.sprintf "seed %d step %d: draft differs from a fresh render" seed step);
            match Llmsim.Chat.live_faults chat with
            | f :: _ -> Llmsim.Chat.respond chat (auto_prompt f)
            | [] -> ()
          done)
        tasks
    done
  in
  List.iter Domain.join (List.init 2 (fun _ -> Domain.spawn work));
  check bool_t "the domains shared drafts" true
    ((render_stats ()).Netcore.Memo_table.hits > 0)

(* The Byzantine LLM corrupts the text after [Chat.draft] returns, so what
   it sends never enters the table: the next honest draft is the render. *)
let test_render_memo_adversary () =
  List.iter
    (fun mode ->
      Netcore.Memo_table.reset ();
      let adv =
        Adversary.Llm.create (Adversary.Llm.with_rate Adversary.Llm.none mode 1.0)
      in
      for seed = 1 to 5 do
        let chat = Llmsim.Chat.start ~seed Llmsim.Fault.Cisco_cfg ~correct:hub_correct in
        let fresh =
          Llmsim.Fault.render Llmsim.Fault.Cisco_cfg hub_correct (Llmsim.Chat.live_faults chat)
        in
        let label = Printf.sprintf "%s seed %d" (Adversary.Llm.mode_name mode) seed in
        check bool_t (label ^ ": mangled") true (Adversary.Llm.draft adv chat <> fresh);
        check Alcotest.string (label ^ ": honest draft") fresh (Llmsim.Chat.draft chat)
      done)
    [ Adversary.Llm.Truncated; Adversary.Llm.Wrong_dialect; Adversary.Llm.Off_topic ]

(* Property: rendering with any single fault still yields text the parser
   survives (corrupted drafts never crash the verifiers). *)
let prop_render_total =
  let ops =
    Llmsim.Fault.opportunities Llmsim.Fault.Junos_cfg correct_junos
    @ [
        Llmsim.Fault.make Llmsim.Error_class.Bad_prefix_list_syntax
          (Llmsim.Fault.Named_list "our-networks");
      ]
  in
  QCheck2.Test.make ~name:"junos render/parse total under any fault" ~count:100
    (QCheck2.Gen.int_bound (List.length ops - 1)) (fun i ->
      let f = List.nth ops i in
      let text = Llmsim.Fault.render Llmsim.Fault.Junos_cfg correct_junos [ f ] in
      let _, _ = Juniper.Parser.parse text in
      true)

let prop_render_cisco_total =
  let ops = Llmsim.Fault.opportunities Llmsim.Fault.Cisco_cfg hub_correct in
  QCheck2.Test.make ~name:"cisco render/parse total under any fault" ~count:100
    (QCheck2.Gen.int_bound (List.length ops - 1)) (fun i ->
      let f = List.nth ops i in
      let text = Llmsim.Fault.render Llmsim.Fault.Cisco_cfg hub_correct [ f ] in
      let _, _ = Cisco.Parser.parse text in
      true)

let props = List.map QCheck_alcotest.to_alcotest [ prop_render_total; prop_render_cisco_total ]

let () =
  Alcotest.run "llmsim"
    [
      ( "faults",
        [
          Alcotest.test_case "junos opportunities" `Quick test_junos_opportunities;
          Alcotest.test_case "cisco opportunities" `Quick test_cisco_opportunities;
          Alcotest.test_case "clean render" `Quick test_render_no_faults_is_clean;
          Alcotest.test_case "missing local-as" `Quick test_render_missing_local_as;
          Alcotest.test_case "bad prefix list" `Quick test_render_bad_prefix_list;
          Alcotest.test_case "cli keywords" `Quick test_render_cli_keywords;
          Alcotest.test_case "neighbor outside bgp" `Quick test_render_neighbor_outside_bgp;
          Alcotest.test_case "and/or confusion" `Quick test_render_and_or_confusion;
          Alcotest.test_case "match community literal" `Quick
            test_render_match_community_literal;
          Alcotest.test_case "match community literal: exact stanza" `Quick
            test_render_match_community_literal_exact_stanza;
          Alcotest.test_case "match community literal: runs" `Quick
            test_render_match_community_literal_runs;
          Alcotest.test_case "semantic fault" `Quick test_render_ir_fault_changes_semantics;
        ] );
      ( "chat",
        [
          Alcotest.test_case "deterministic" `Quick test_chat_deterministic;
          Alcotest.test_case "iip suppression" `Quick test_chat_iip_suppression;
          Alcotest.test_case "forced faults fixable" `Quick test_chat_forced_faults_fixable;
          Alcotest.test_case "redistribution resists auto" `Quick
            test_chat_auto_never_fixes_redistribution;
          Alcotest.test_case "prefix range morphs" `Quick test_chat_prefix_range_morphs;
          Alcotest.test_case "unmatched prompt noop" `Quick test_chat_unmatched_prompt_is_noop;
          Alcotest.test_case "regression possible" `Quick test_chat_regression_possible;
          Alcotest.test_case "draft reuse matches a fresh render" `Quick
            test_chat_draft_reuse;
        ] );
      ( "memo",
        [
          Alcotest.test_case "key soundness" `Quick test_render_memo_key;
          Alcotest.test_case "two domains" `Quick test_render_memo_domains;
          Alcotest.test_case "mangled drafts never cached" `Quick test_render_memo_adversary;
        ] );
      ("properties", props);
    ]
