(* Tests for the data-plane substrate: packets, ACLs, the symbolic ACL
   differ, dialect support, and the ACL path through Campion and the
   translation VPP loop. *)

open Netcore
open Policy

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int
let pfx = Prefix.of_string_exn
let ip = Ipv4.of_string_exn

let contains = Netcore.Substring.contains

(* ------------------------------------------------------------------ *)
(* Port sets                                                           *)
(* ------------------------------------------------------------------ *)

let test_port_set_basics () =
  let s = Symbolic.Port_set.range 80 443 in
  check bool_t "mem 80" true (Symbolic.Port_set.mem 80 s);
  check bool_t "mem 443" true (Symbolic.Port_set.mem 443 s);
  check bool_t "not 79" false (Symbolic.Port_set.mem 79 s);
  check bool_t "choose" true (Symbolic.Port_set.choose s = Some 80);
  check bool_t "empty range" true (Symbolic.Port_set.is_empty (Symbolic.Port_set.range 5 4))

let test_port_set_algebra () =
  let open Symbolic.Port_set in
  let a = range 10 20 and b = range 15 30 in
  check bool_t "inter" true (equal (inter a b) (range 15 20));
  check bool_t "union merges" true (equal (union a b) (range 10 30));
  check bool_t "diff" true (equal (diff a b) (range 10 14));
  check bool_t "complement round trip" true (equal (complement (complement a)) a);
  (* union of adjacent intervals merges *)
  check bool_t "adjacent merge" true (equal (union (range 1 5) (range 6 9)) (range 1 9))

let prop_port_set_membership =
  let open QCheck2.Gen in
  let set_gen =
    list_size (int_bound 3)
      (int_bound 100 >>= fun lo -> int_range lo 110 >>= fun hi -> return (lo, hi))
    >>= fun ranges ->
    return
      (List.fold_left
         (fun acc (lo, hi) -> Symbolic.Port_set.union acc (Symbolic.Port_set.range lo hi))
         Symbolic.Port_set.empty ranges)
  in
  QCheck2.Test.make ~name:"port set algebra agrees with membership" ~count:300
    (triple set_gen set_gen (int_bound 120)) (fun (a, b, p) ->
      let open Symbolic.Port_set in
      mem p (inter a b) = (mem p a && mem p b)
      && mem p (union a b) = (mem p a || mem p b)
      && mem p (diff a b) = (mem p a && not (mem p b))
      && mem p (complement a) = not (mem p a))

(* ------------------------------------------------------------------ *)
(* Concrete ACLs                                                       *)
(* ------------------------------------------------------------------ *)

let ssh_guard =
  Acl.make "mgmt-in"
    [
      Acl.entry ~proto:(Acl.Proto Packet.Tcp) ~src:(pfx "1.2.3.0/24")
        ~dst:(Prefix.host (ip "1.1.1.1")) ~dst_port:(Acl.Eq 22) 10;
      Acl.entry ~action:Action.Deny ~dst:(Prefix.host (ip "1.1.1.1")) 20;
      Acl.entry 30;
    ]

let pkt ?(proto = Packet.Tcp) ?(port = 0) src dst =
  { Packet.src = ip src; dst = ip dst; proto; dst_port = port }

let test_acl_first_match () =
  check bool_t "ssh from customer" true
    (Acl.permits ssh_guard (pkt ~port:22 "1.2.3.9" "1.1.1.1"));
  check bool_t "telnet to loopback denied" false
    (Acl.permits ssh_guard (pkt ~port:23 "1.2.3.9" "1.1.1.1"));
  check bool_t "ssh from elsewhere denied" false
    (Acl.permits ssh_guard (pkt ~port:22 "9.9.9.9" "1.1.1.1"));
  check bool_t "transit traffic permitted" true
    (Acl.permits ssh_guard (pkt ~port:80 "9.9.9.9" "8.8.8.8"));
  check bool_t "udp 22 to loopback denied" false
    (Acl.permits ssh_guard (pkt ~proto:Packet.Udp ~port:22 "1.2.3.9" "1.1.1.1"))

let test_acl_implicit_deny () =
  let empty = Acl.make "none" [] in
  check bool_t "implicit deny" false (Acl.permits empty (pkt "1.1.1.1" "2.2.2.2"))

(* ------------------------------------------------------------------ *)
(* Symbolic ACL diff                                                   *)
(* ------------------------------------------------------------------ *)

let test_acl_diff_equivalent () =
  check bool_t "self equivalence" true (Symbolic.Acl_diff.equivalent ssh_guard ssh_guard);
  (* Different sequence numbers, same semantics. *)
  let renumbered =
    Acl.make "mgmt-in"
      (List.map
         (fun (e : Acl.entry) -> { e with Acl.seq = e.Acl.seq * 7 })
         ssh_guard.Acl.entries)
  in
  check bool_t "renumbered equivalent" true (Symbolic.Acl_diff.equivalent ssh_guard renumbered)

let test_acl_diff_flipped_action () =
  let flipped =
    Acl.make "mgmt-in"
      (List.map
         (fun (e : Acl.entry) ->
           if e.Acl.seq = 10 then { e with Acl.action = Action.Deny } else e)
         ssh_guard.Acl.entries)
  in
  let diffs = Symbolic.Acl_diff.compare_acls ssh_guard flipped in
  check bool_t "found" true (diffs <> []);
  (* Every witness packet must genuinely disagree concretely. *)
  List.iter
    (fun (d : Symbolic.Acl_diff.difference) ->
      check bool_t "witness disagrees" true
        (Acl.permits ssh_guard d.Symbolic.Acl_diff.example
        <> Acl.permits flipped d.Symbolic.Acl_diff.example))
    diffs;
  (* The ssh packet is the thing that changed. *)
  check bool_t "some witness is the ssh packet shape" true
    (List.exists
       (fun (d : Symbolic.Acl_diff.difference) ->
         let p = d.Symbolic.Acl_diff.example in
         p.Packet.dst_port = 22 && p.Packet.proto = Packet.Tcp)
       diffs)

let test_acl_diff_dropped_entry () =
  let without_deny =
    Acl.make "mgmt-in"
      (List.filter (fun (e : Acl.entry) -> e.Acl.seq <> 20) ssh_guard.Acl.entries)
  in
  let diffs = Symbolic.Acl_diff.compare_acls ssh_guard without_deny in
  (* Without the deny, non-ssh packets to the loopback are now permitted. *)
  check bool_t "leak to loopback" true
    (List.exists
       (fun (d : Symbolic.Acl_diff.difference) ->
         Ipv4.equal d.Symbolic.Acl_diff.example.Packet.dst (ip "1.1.1.1")
         && d.Symbolic.Acl_diff.action_a = Action.Deny
         && d.Symbolic.Acl_diff.action_b = Action.Permit)
       diffs)

(* Agreement property: symbolic regions classify packets exactly like the
   concrete evaluator, for random ACLs and packets. *)
let acl_gen =
  let open QCheck2.Gen in
  let prefix_gen =
    oneofl [ "0.0.0.0/0"; "1.2.3.0/24"; "1.2.3.128/25"; "10.0.0.0/8"; "1.1.1.1/32" ]
    >>= fun s -> return (pfx s)
  in
  let entry_gen seq =
    bool >>= fun permit ->
    oneofl [ Acl.Any_proto; Acl.Proto Packet.Tcp; Acl.Proto Packet.Udp ] >>= fun proto ->
    prefix_gen >>= fun src ->
    prefix_gen >>= fun dst ->
    oneofl [ Acl.Any_port; Acl.Eq 22; Acl.Eq 80; Acl.Port_range (1000, 2000) ]
    >>= fun dst_port ->
    return
      (Acl.entry
         ~action:(if permit then Action.Permit else Action.Deny)
         ~proto ~src ~dst ~dst_port seq)
  in
  int_range 1 4 >>= fun n ->
  let rec build i acc =
    if i > n then return (Acl.make "gen" (List.rev acc))
    else entry_gen (i * 10) >>= fun e -> build (i + 1) (e :: acc)
  in
  build 1 []

let packet_gen =
  let open QCheck2.Gen in
  oneofl [ "1.2.3.4"; "1.2.3.200"; "10.5.5.5"; "1.1.1.1"; "9.9.9.9" ] >>= fun src ->
  oneofl [ "1.2.3.4"; "1.1.1.1"; "10.0.0.1"; "8.8.8.8" ] >>= fun dst ->
  oneofl [ Packet.Tcp; Packet.Udp; Packet.Icmp ] >>= fun proto ->
  oneofl [ 0; 22; 80; 1500; 4000 ] >>= fun port ->
  return (pkt ~proto ~port src dst)

let prop_acl_symbolic_agrees =
  QCheck2.Test.make ~name:"symbolic ACL regions agree with concrete permits" ~count:500
    (QCheck2.Gen.pair acl_gen packet_gen) (fun (acl, p) ->
      let regions = Symbolic.Acl_diff.compile acl in
      let hits =
        List.filter
          (fun (r : Symbolic.Acl_diff.region) ->
            List.exists (Symbolic.Acl_diff.cube_satisfies p) r.Symbolic.Acl_diff.space)
          regions
      in
      match hits with
      | [ r ] -> (r.Symbolic.Acl_diff.action = Action.Permit) = Acl.permits acl p
      | _ -> false)

let prop_acl_diff_witnesses =
  QCheck2.Test.make ~name:"ACL diff witnesses concretely disagree" ~count:200
    (QCheck2.Gen.pair acl_gen acl_gen) (fun (a, b) ->
      List.for_all
        (fun (d : Symbolic.Acl_diff.difference) ->
          Acl.permits a d.Symbolic.Acl_diff.example
          <> Acl.permits b d.Symbolic.Acl_diff.example)
        (Symbolic.Acl_diff.compare_acls a b))

(* ------------------------------------------------------------------ *)
(* Dialects                                                            *)
(* ------------------------------------------------------------------ *)

let border_ir = fst (Cisco.Parser.parse Cisco.Samples.border_router)

let test_cisco_acl_parses () =
  check int_t "one acl" 1 (List.length border_ir.Config_ir.acls);
  let a = Option.get (Config_ir.find_acl border_ir "mgmt-in") in
  check int_t "three entries" 3 (List.length a.Acl.entries);
  let eth0 = Option.get (Config_ir.find_interface border_ir (Iface.ethernet ~slot:0 ~port:0)) in
  check bool_t "attached in" true (eth0.Config_ir.acl_in = Some "mgmt-in")

let test_cisco_acl_round_trip () =
  let printed = Cisco.Printer.print border_ir in
  let reparsed, diags = Cisco.Parser.parse printed in
  check int_t "no diags" 0 (List.length diags);
  check bool_t "round trip" true (border_ir = reparsed)

let test_junos_firewall_round_trip () =
  let junos_ir = Juniper.Translate.of_cisco_ir border_ir in
  let text = Juniper.Printer.print junos_ir in
  check bool_t "has firewall section" true (contains ~sub:"firewall" text);
  check bool_t "has filter attach" true (contains ~sub:"input mgmt-in" text);
  let reparsed, diags = Juniper.Parser.parse text in
  check int_t "no diags" 0 (List.length diags);
  let a = Option.get (Config_ir.find_acl reparsed "mgmt-in") in
  check bool_t "semantically equal acl" true
    (Symbolic.Acl_diff.equivalent a (Option.get (Config_ir.find_acl border_ir "mgmt-in")))

(* ------------------------------------------------------------------ *)
(* Campion and the loop                                                *)
(* ------------------------------------------------------------------ *)

let correct_junos = Juniper.Translate.of_cisco_ir border_ir

let test_campion_acl_difference () =
  let text =
    Llmsim.Fault.render Llmsim.Fault.Junos_cfg correct_junos
      [
        Llmsim.Fault.make Llmsim.Error_class.Acl_action_flipped
          (Llmsim.Fault.Policy_entry ("mgmt-in", 10));
      ]
  in
  let translation, _ = Juniper.Parser.parse text in
  let findings = Campion.Differ.compare ~original:border_ir ~translation in
  check bool_t "acl behavior finding" true
    (List.exists
       (function
         | Campion.Differ.Acl_behavior a ->
             a.Campion.Differ.acl = "mgmt-in"
             && a.Campion.Differ.acl_direction = Campion.Differ.Import
         | _ -> false)
       findings)

let test_campion_acl_wrong_port () =
  let text =
    Llmsim.Fault.render Llmsim.Fault.Junos_cfg correct_junos
      [
        Llmsim.Fault.make Llmsim.Error_class.Acl_wrong_port
          (Llmsim.Fault.Policy_entry ("mgmt-in", 10));
      ]
  in
  let translation, _ = Juniper.Parser.parse text in
  let findings = Campion.Differ.compare ~original:border_ir ~translation in
  (* Port 22 vs 23: the witness must be on one of the two ports. *)
  check bool_t "witness on the disputed port" true
    (List.exists
       (function
         | Campion.Differ.Acl_behavior a ->
             let p = a.Campion.Differ.packet.Packet.dst_port in
             p = 22 || p = 23
         | _ -> false)
       findings)

let test_humanizer_acl_prompt () =
  let finding =
    Campion.Differ.Acl_behavior
      {
        Campion.Differ.acl = "mgmt-in";
        iface = Iface.ethernet ~slot:0 ~port:0;
        acl_direction = Campion.Differ.Import;
        packet = pkt ~port:22 "1.2.3.4" "1.1.1.1";
        original_packet_action = Action.Permit;
        translated_packet_action = Action.Deny;
      }
  in
  let p = Cosynth.Humanizer.of_campion finding in
  check bool_t "table-1 style text" true
    (contains ~sub:"the access list mgmt-in applied import on interface Ethernet0/0"
       p.Cosynth.Humanizer.text);
  check bool_t "mentions both actions" true
    (contains ~sub:"PERMIT" p.Cosynth.Humanizer.text
    && contains ~sub:"DENY" p.Cosynth.Humanizer.text);
  check bool_t "has refs" true (p.Cosynth.Humanizer.refs <> [])

let test_translation_loop_fixes_acl_fault () =
  let faults =
    [
      Llmsim.Fault.make Llmsim.Error_class.Acl_action_flipped
        (Llmsim.Fault.Policy_entry ("mgmt-in", 10));
      Llmsim.Fault.make Llmsim.Error_class.Acl_entry_dropped
        (Llmsim.Fault.Policy_entry ("mgmt-in", 20));
    ]
  in
  let r =
    Cosynth.Driver.run_translation ~seed:5 ~force_faults:faults ~suppress_random:true
      ~cisco_text:Cisco.Samples.border_router ()
  in
  check bool_t "verified" true r.Cosynth.Driver.verified;
  (* The final translation's ACL must match the original exactly. *)
  let final_ir, _ = Juniper.Parser.parse r.Cosynth.Driver.final_text in
  check bool_t "acl restored" true
    (Symbolic.Acl_diff.equivalent
       (Option.get (Config_ir.find_acl final_ir "mgmt-in"))
       (Option.get (Config_ir.find_acl border_ir "mgmt-in")))

let test_translation_loop_random_with_acls () =
  List.iter
    (fun seed ->
      let r =
        Cosynth.Driver.run_translation ~seed ~cisco_text:Cisco.Samples.border_router ()
      in
      check bool_t (Printf.sprintf "seed %d verified" seed) true r.Cosynth.Driver.verified)
    [ 21; 22; 23 ]

let props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_port_set_membership; prop_acl_symbolic_agrees; prop_acl_diff_witnesses ]

let () =
  Alcotest.run "acl"
    [
      ( "port-set",
        [
          Alcotest.test_case "basics" `Quick test_port_set_basics;
          Alcotest.test_case "algebra" `Quick test_port_set_algebra;
        ] );
      ( "concrete",
        [
          Alcotest.test_case "first match" `Quick test_acl_first_match;
          Alcotest.test_case "implicit deny" `Quick test_acl_implicit_deny;
        ] );
      ( "symbolic",
        [
          Alcotest.test_case "equivalence" `Quick test_acl_diff_equivalent;
          Alcotest.test_case "flipped action" `Quick test_acl_diff_flipped_action;
          Alcotest.test_case "dropped entry" `Quick test_acl_diff_dropped_entry;
        ] );
      ( "dialects",
        [
          Alcotest.test_case "cisco parses" `Quick test_cisco_acl_parses;
          Alcotest.test_case "cisco round trip" `Quick test_cisco_acl_round_trip;
          Alcotest.test_case "junos round trip" `Quick test_junos_firewall_round_trip;
        ] );
      ( "campion-and-loop",
        [
          Alcotest.test_case "acl difference" `Quick test_campion_acl_difference;
          Alcotest.test_case "wrong port witness" `Quick test_campion_acl_wrong_port;
          Alcotest.test_case "humanizer prompt" `Quick test_humanizer_acl_prompt;
          Alcotest.test_case "loop fixes acl faults" `Quick
            test_translation_loop_fixes_acl_fault;
          Alcotest.test_case "random loops with acls" `Slow
            test_translation_loop_random_with_acls;
        ] );
      ("properties", props);
    ]
