(* Tests for symbolic policy composition and the Lightyear-style modular
   proof of the no-transit policy, including the crossed-attachment fault
   that only whole-network checks can catch. *)

open Netcore
open Policy

let check = Alcotest.check
let bool_t = Alcotest.bool
let comm s = Option.get (Community.of_string s)
let pfx = Prefix.of_string_exn

(* ------------------------------------------------------------------ *)
(* Compose                                                             *)
(* ------------------------------------------------------------------ *)

let env_with_lists =
  {
    Eval.prefix_lists = [];
    community_lists =
      [
        Community_list.make "c2" [ Community_list.entry [ comm "100:1" ] ];
        Community_list.make "c3" [ Community_list.entry [ comm "101:1" ] ];
      ];
    as_path_lists = [];
  }

let tag name c =
  Route_map.make name
    [
      Route_map.entry
        ~sets:[ Route_map.Set_community { communities = [ c ]; additive = true } ]
        10;
    ]

let filter_or name denied =
  (* deny any route carrying any of the given community lists (OR), else permit *)
  let denies =
    List.mapi
      (fun i cl ->
        Route_map.entry ~action:Action.Deny ~matches:[ Route_map.Match_community_list cl ]
          ((i + 1) * 10))
      denied
  in
  Route_map.make name (denies @ [ Route_map.entry ((List.length denied + 1) * 10) ])

(* The image of every route under a one-stanza map that applies [sets]. *)
let image_of_sets sets =
  Symbolic.Pred.cubes
    (Symbolic.Compose.image
       (Symbolic.Transfer.compile env_with_lists (Route_map.make "m" [ Route_map.entry ~sets 10 ]))
       Symbolic.Pred.full)

let test_apply_effect_additive () =
  let out =
    image_of_sets [ Route_map.Set_community { communities = [ comm "100:1" ]; additive = true } ]
  in
  (* Every route in the image carries 100:1. *)
  check bool_t "must contains" true
    (out <> []
    && List.for_all
         (fun (c : Symbolic.Cube.t) ->
           Community.Set.mem (comm "100:1") (Symbolic.Comm_constr.sample c.Symbolic.Cube.comms))
         out)

let test_apply_effect_med () =
  let out = image_of_sets [ Route_map.Set_med 50 ] in
  check bool_t "med pinned" true
    (out <> []
    && List.for_all
         (fun (c : Symbolic.Cube.t) -> c.Symbolic.Cube.med = Symbolic.Int_constr.eq 50)
         out)

let test_image_soundness_concrete () =
  (* Any concrete route pushed through the map lands inside the image. *)
  let m = tag "TAG" (comm "100:1") in
  let img =
    Symbolic.Compose.image (Symbolic.Transfer.compile env_with_lists m) Symbolic.Pred.full
  in
  let routes =
    [
      Route.make (pfx "1.2.3.0/24");
      Route.make ~communities:(Community.Set.singleton (comm "7:7")) (pfx "9.0.0.0/8");
      Route.make ~med:5 (pfx "10.1.0.0/16");
    ]
  in
  List.iter
    (fun r ->
      match Eval.eval env_with_lists m r with
      | Eval.Permitted out ->
          check bool_t "output inside image" true
            (Symbolic.Pred.satisfies ~env:env_with_lists out img)
      | Eval.Denied -> ())
    routes

(* What survives [map_a] then [map_b] from the full space. *)
let chain map_a map_b =
  Symbolic.Compose.permits
    (Symbolic.Transfer.compile env_with_lists map_b)
    (Symbolic.Compose.image (Symbolic.Transfer.compile env_with_lists map_a) Symbolic.Pred.full)

let test_chain_tag_then_filter_blocks () =
  (* TAG adds 100:1; FILTER denies anything carrying 100:1: nothing passes. *)
  let m_tag = tag "TAG" (comm "100:1") in
  let m_filter = filter_or "FILTER" [ "c2" ] in
  let escaping = chain m_tag m_filter in
  check bool_t "empty" true (Symbolic.Pred.is_empty escaping)

let test_chain_wrong_filter_leaks () =
  (* TAG adds 100:1 but FILTER denies only 101:1: routes escape. *)
  let m_tag = tag "TAG" (comm "100:1") in
  let m_filter = filter_or "FILTER" [ "c3" ] in
  let escaping = chain m_tag m_filter in
  check bool_t "non-empty" false (Symbolic.Pred.is_empty escaping);
  match Symbolic.Pred.sample ~env:env_with_lists escaping with
  | Some r ->
      check bool_t "witness carries tag" true
        (Community.Set.mem (comm "100:1") r.Route.communities)
  | None -> Alcotest.fail "expected a witness"

(* ------------------------------------------------------------------ *)
(* Lightyear proof                                                     *)
(* ------------------------------------------------------------------ *)

let star = Star.make ~routers:6

let oracle_of star =
  List.map
    (fun (t : Cosynth.Modularizer.router_task) ->
      (t.Cosynth.Modularizer.router, t.Cosynth.Modularizer.correct))
    (Cosynth.Modularizer.plan star)

let oracle_configs () = oracle_of star

let test_proof_on_correct_network () =
  check bool_t "proved" true
    (Cosynth.Lightyear.prove_no_transit star (oracle_configs ()) = Cosynth.Lightyear.Proved)

let break_hub fault =
  let configs = oracle_configs () in
  let hub = List.assoc "R1" configs in
  let text = Llmsim.Fault.render Llmsim.Fault.Cisco_cfg hub [ fault ] in
  let broken, _ = Cisco.Parser.parse text in
  ("R1", broken) :: List.remove_assoc "R1" configs

let test_proof_refutes_and_or () =
  let configs =
    break_hub
      (Llmsim.Fault.make Llmsim.Error_class.And_or_confusion
         (Llmsim.Fault.Policy (Cosynth.Modularizer.egress_map_name "R2")))
  in
  match Cosynth.Lightyear.prove_no_transit star configs with
  | Cosynth.Lightyear.Refuted r ->
      check bool_t "leak into R2" true (r.Cosynth.Lightyear.to_spoke = "R2");
      check bool_t "has witness" true (r.Cosynth.Lightyear.example <> None)
  | _ -> Alcotest.fail "expected refutation"

let test_proof_refutes_crossed_attachment () =
  let configs =
    break_hub
      (Llmsim.Fault.make Llmsim.Error_class.Crossed_policy_attachment
         Llmsim.Fault.Whole_config)
  in
  (match Cosynth.Lightyear.prove_no_transit star configs with
  | Cosynth.Lightyear.Refuted _ -> ()
  | _ -> Alcotest.fail "expected refutation");
  (* And the simulation agrees. *)
  let ok, _ = Cosynth.Modularizer.no_transit_holds star configs in
  check bool_t "simulation also fails" false ok

let test_crossed_attachment_invisible_locally () =
  (* The crossed hub passes syntax, topology and every local policy spec. *)
  let configs =
    break_hub
      (Llmsim.Fault.make Llmsim.Error_class.Crossed_policy_attachment
         Llmsim.Fault.Whole_config)
  in
  let hub_ir = List.assoc "R1" configs in
  let text = Cisco.Printer.print hub_ir in
  check bool_t "syntax clean" true
    (Batfish.Parse_check.syntax_ok Batfish.Parse_check.Cisco_ios text);
  check bool_t "topology clean" true
    (Topoverify.Verifier.check star.Star.topology ~router:"R1" hub_ir = []);
  let hub_task = List.hd (Cosynth.Modularizer.plan star) in
  check bool_t "local specs hold" true
    (List.for_all
       (fun (_, o) -> o = Batfish.Search_route_policies.Holds)
       (Batfish.Search_route_policies.check_all hub_ir hub_task.Cosynth.Modularizer.specs))

let test_proof_side_conditions () =
  let configs = oracle_configs () in
  check bool_t "all hold" true (Cosynth.Lightyear.side_conditions star configs = []);
  (* Remove the hub's export policy on one session. *)
  let hub = List.assoc "R1" configs in
  let stripped =
    Llmsim.Fault.render Llmsim.Fault.Cisco_cfg hub
      [
        Llmsim.Fault.make Llmsim.Error_class.Missing_export_policy
          (Llmsim.Fault.Neighbor (Ipv4.of_string_exn "1.0.0.2"));
      ]
  in
  let broken, _ = Cisco.Parser.parse stripped in
  let configs = ("R1", broken) :: List.remove_assoc "R1" configs in
  match Cosynth.Lightyear.prove_no_transit star configs with
  | Cosynth.Lightyear.Inapplicable _ -> ()
  | _ -> Alcotest.fail "expected inapplicable"

(* Soundness property: whenever the proof says Proved on a (possibly
   corrupted) network, the full simulation agrees. *)
let prop_proved_implies_simulation =
  let configs = oracle_configs () in
  let hub = List.assoc "R1" configs in
  let ops = Llmsim.Fault.opportunities Llmsim.Fault.Cisco_cfg hub in
  QCheck2.Test.make ~name:"Proved implies the simulation holds" ~count:60
    (QCheck2.Gen.int_bound (List.length ops - 1)) (fun i ->
      let fault = List.nth ops i in
      let text = Llmsim.Fault.render Llmsim.Fault.Cisco_cfg hub [ fault ] in
      let broken, _ = Cisco.Parser.parse text in
      let configs = ("R1", broken) :: List.remove_assoc "R1" configs in
      match Cosynth.Lightyear.prove_no_transit star configs with
      | Cosynth.Lightyear.Proved ->
          (* The proof covers isolation only; reachability failures (e.g. a
             syntax fault collapsing a filter into deny-all) are out of its
             scope and are caught by the local loop or the simulation. *)
          Cosynth.Modularizer.transit_violations star configs = []
      | Cosynth.Lightyear.Refuted _ | Cosynth.Lightyear.Inapplicable _ -> true)

(* ------------------------------------------------------------------ *)
(* Compile-once proof against the per-pair reference                   *)
(* ------------------------------------------------------------------ *)

(* The proof as first written: for every ordered spoke pair, compile both
   hub maps afresh and image the full space again. *)
let per_pair_proof (star : Star.t) configs =
  match Cosynth.Lightyear.side_conditions star configs with
  | p :: _ -> Cosynth.Lightyear.Inapplicable p
  | [] -> (
      let hub = List.assoc star.Star.hub configs in
      let env = Eval.env_of_config hub in
      let policies spoke =
        let session =
          List.find
            (fun (s : Topology.session) -> s.Topology.peer_name = spoke)
            (Topology.sessions_of star.Star.topology star.Star.hub)
        in
        let n =
          Option.get
            (Config_ir.find_neighbor (Option.get hub.Config_ir.bgp) session.Topology.peer_addr)
        in
        (Option.get n.Config_ir.import_policy, Option.get n.Config_ir.export_policy)
      in
      let compile name =
        Symbolic.Transfer.compile env (Option.get (Config_ir.find_route_map hub name))
      in
      let refutation =
        List.find_map
          (fun from_spoke ->
            List.find_map
              (fun to_spoke ->
                if to_spoke = from_spoke then None
                else
                  let escaping =
                    Symbolic.Compose.permits
                      (compile (snd (policies to_spoke)))
                      (Symbolic.Compose.image
                         (compile (fst (policies from_spoke)))
                         Symbolic.Pred.full)
                  in
                  if Symbolic.Pred.is_empty escaping then None
                  else
                    Some
                      {
                        Cosynth.Lightyear.from_spoke;
                        to_spoke;
                        example = Symbolic.Pred.sample ~env escaping;
                      })
              star.Star.spokes)
          star.Star.spokes
      in
      match refutation with
      | None -> Cosynth.Lightyear.Proved
      | Some r -> Cosynth.Lightyear.Refuted r)

let with_hub (star : Star.t) configs hub_ir =
  (star.Star.hub, hub_ir) :: List.remove_assoc star.Star.hub configs

(* Up to [steps] drafts of one hub conversation, each answering an
   automated prompt about the first live fault of the one before. *)
let hub_drafts ~seed ~force_faults ~steps correct =
  let chat = Llmsim.Chat.start ~seed ~force_faults Llmsim.Fault.Cisco_cfg ~correct in
  let rec go n acc =
    let acc = fst (Cisco.Parser.parse (Llmsim.Chat.draft chat)) :: acc in
    match Llmsim.Chat.live_faults chat with
    | f :: _ when n > 1 ->
        Llmsim.Chat.respond chat { Llmsim.Chat.text = ""; refs = [ f ]; strength = Auto };
        go (n - 1) acc
    | _ -> List.rev acc
  in
  go steps []

let test_proof_matches_per_pair () =
  let proved = ref 0 and refuted = ref 0 in
  let agree label star configs =
    let got = Cosynth.Lightyear.prove_no_transit star configs in
    (match got with
    | Cosynth.Lightyear.Proved -> incr proved
    | Cosynth.Lightyear.Refuted _ -> incr refuted
    | Cosynth.Lightyear.Inapplicable _ -> ());
    check bool_t (label ^ ": same result as per pair") true (got = per_pair_proof star configs)
  in
  let crossed =
    Llmsim.Fault.make Llmsim.Error_class.Crossed_policy_attachment Llmsim.Fault.Whole_config
  in
  List.iter
    (fun routers ->
      let star = Star.make ~routers in
      let configs = oracle_of star in
      agree (Printf.sprintf "star %d oracle" routers) star configs;
      let correct = List.assoc star.Star.hub configs in
      for i = 0 to 5 do
        let force_faults = if i mod 2 = 0 then [ crossed ] else [] in
        List.iteri
          (fun step hub_ir ->
            agree
              (Printf.sprintf "star %d chat %d draft %d" routers i step)
              star (with_hub star configs hub_ir))
          (hub_drafts ~seed:((routers * 100) + i) ~force_faults ~steps:4 correct)
      done)
    [ 3; 7; 15 ];
  (* E1's four hub rows. *)
  let star7 = Star.make ~routers:7 in
  let configs7 = oracle_of star7 in
  let hub7 = List.assoc star7.Star.hub configs7 in
  List.iter
    (fun (label, faults) ->
      let text = Llmsim.Fault.render Llmsim.Fault.Cisco_cfg hub7 faults in
      agree ("E1 " ^ label) star7 (with_hub star7 configs7 (fst (Cisco.Parser.parse text))))
    [
      ("correct (oracle)", []);
      ( "AND/OR confusion",
        [
          Llmsim.Fault.make Llmsim.Error_class.And_or_confusion
            (Llmsim.Fault.Policy (Cosynth.Modularizer.egress_map_name "R2"));
        ] );
      ("crossed ingress attachments", [ crossed ]);
      ( "non-additive community",
        [
          Llmsim.Fault.make Llmsim.Error_class.Community_not_additive
            (Llmsim.Fault.Policy_entry (Cosynth.Modularizer.ingress_map_name "R2", 10));
        ] );
    ];
  check bool_t "some network proved" true (!proved > 0);
  check bool_t "some network refuted" true (!refuted > 0)

(* ------------------------------------------------------------------ *)
(* Driver global phase                                                 *)
(* ------------------------------------------------------------------ *)

let test_driver_prove_final_check () =
  let r =
    Cosynth.Driver.run_no_transit ~seed:3 ~routers:5
      ~final_check:Cosynth.Driver.Both ()
  in
  check bool_t "global ok" true r.Cosynth.Driver.global_ok;
  check bool_t "proof returned" true (r.Cosynth.Driver.proof = Some Cosynth.Lightyear.Proved)

let test_driver_global_phase_recovers () =
  (* Seed 260 injects a crossed attachment on the 5-router star (found by
     scanning); the run must converge through global-counterexample
     prompts. *)
  let r = Cosynth.Driver.run_no_transit ~seed:260 ~routers:5 () in
  let globals =
    List.filter
      (fun (e : Cosynth.Driver.event) -> e.Cosynth.Driver.note = "global")
      r.Cosynth.Driver.transcript.Cosynth.Driver.events
  in
  check bool_t "global prompts were needed" true (globals <> []);
  check bool_t "still converged" true r.Cosynth.Driver.transcript.Cosynth.Driver.converged;
  check bool_t "global ok" true r.Cosynth.Driver.global_ok

let props = List.map QCheck_alcotest.to_alcotest [ prop_proved_implies_simulation ]

let () =
  Alcotest.run "lightyear"
    [
      ( "compose",
        [
          Alcotest.test_case "additive effect" `Quick test_apply_effect_additive;
          Alcotest.test_case "med effect" `Quick test_apply_effect_med;
          Alcotest.test_case "image soundness" `Quick test_image_soundness_concrete;
          Alcotest.test_case "tag-filter blocks" `Quick test_chain_tag_then_filter_blocks;
          Alcotest.test_case "wrong filter leaks" `Quick test_chain_wrong_filter_leaks;
        ] );
      ( "proof",
        [
          Alcotest.test_case "proves correct network" `Quick test_proof_on_correct_network;
          Alcotest.test_case "refutes and/or" `Quick test_proof_refutes_and_or;
          Alcotest.test_case "refutes crossed attachment" `Quick
            test_proof_refutes_crossed_attachment;
          Alcotest.test_case "crossed invisible locally" `Quick
            test_crossed_attachment_invisible_locally;
          Alcotest.test_case "side conditions" `Quick test_proof_side_conditions;
          Alcotest.test_case "compile once = per pair" `Quick test_proof_matches_per_pair;
        ] );
      ( "driver",
        [
          Alcotest.test_case "prove as final check" `Slow test_driver_prove_final_check;
          Alcotest.test_case "global phase recovers" `Slow test_driver_global_phase_recovers;
        ] );
      ("properties", props);
    ]
