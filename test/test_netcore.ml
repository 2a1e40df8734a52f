(* Unit and property tests for the netcore substrate. *)

open Netcore

let check = Alcotest.check
let bool_t = Alcotest.bool
let string_t = Alcotest.string
let int_t = Alcotest.int

(* ------------------------------------------------------------------ *)
(* Ipv4                                                                *)
(* ------------------------------------------------------------------ *)

let test_ipv4_parse_print () =
  List.iter
    (fun s -> check string_t s s (Ipv4.to_string (Ipv4.of_string_exn s)))
    [ "0.0.0.0"; "1.2.3.4"; "255.255.255.255"; "10.0.0.1"; "192.168.1.254" ]

let test_ipv4_reject () =
  List.iter
    (fun s -> check bool_t s true (Ipv4.of_string s = None))
    [ ""; "1.2.3"; "1.2.3.4.5"; "256.0.0.1"; "-1.0.0.0"; "a.b.c.d"; "1..2.3" ]

let test_ipv4_octets () =
  let a = Ipv4.of_octets 10 20 30 40 in
  check bool_t "octets round trip" true (Ipv4.to_octets a = (10, 20, 30, 40));
  check int_t "numeric value" ((10 lsl 24) lor (20 lsl 16) lor (30 lsl 8) lor 40)
    (Ipv4.to_int a)

let test_ipv4_bits () =
  let a = Ipv4.of_octets 128 0 0 1 in
  check bool_t "msb set" true (Ipv4.bit a 0);
  check bool_t "bit 1 clear" false (Ipv4.bit a 1);
  check bool_t "lsb set" true (Ipv4.bit a 31)

let test_ipv4_mask_network () =
  check string_t "mask 24" "255.255.255.0" (Ipv4.to_string (Ipv4.mask 24));
  check string_t "mask 0" "0.0.0.0" (Ipv4.to_string (Ipv4.mask 0));
  check string_t "mask 32" "255.255.255.255" (Ipv4.to_string (Ipv4.mask 32));
  check string_t "network" "10.1.2.0"
    (Ipv4.to_string (Ipv4.network (Ipv4.of_octets 10 1 2 99) 24))

let test_ipv4_succ_wraps () =
  check string_t "succ" "0.0.0.0"
    (Ipv4.to_string (Ipv4.succ (Ipv4.of_string_exn "255.255.255.255")));
  check string_t "succ carries" "1.2.4.0"
    (Ipv4.to_string (Ipv4.succ (Ipv4.of_octets 1 2 3 255)))

(* ------------------------------------------------------------------ *)
(* Prefix                                                              *)
(* ------------------------------------------------------------------ *)

let pfx = Prefix.of_string_exn

let test_prefix_normalizes () =
  check string_t "host bits zeroed" "10.1.2.0/24"
    (Prefix.to_string (Prefix.make (Ipv4.of_octets 10 1 2 99) 24))

let test_prefix_parse () =
  check string_t "parse" "1.2.3.0/24" (Prefix.to_string (pfx "1.2.3.0/24"));
  check string_t "bare address is /32" "1.2.3.4/32" (Prefix.to_string (pfx "1.2.3.4"));
  check bool_t "reject /33" true (Prefix.of_string "1.2.3.0/33" = None);
  check bool_t "reject junk" true (Prefix.of_string "1.2.3.0/x" = None)

let test_prefix_contains () =
  let p = pfx "10.0.0.0/8" in
  check bool_t "contains" true (Prefix.contains_addr p (Ipv4.of_octets 10 255 0 1));
  check bool_t "not contains" false (Prefix.contains_addr p (Ipv4.of_octets 11 0 0 1))

let test_prefix_subsumes () =
  check bool_t "shorter subsumes longer" true (Prefix.subsumes (pfx "10.0.0.0/8") (pfx "10.1.0.0/16"));
  check bool_t "not reverse" false (Prefix.subsumes (pfx "10.1.0.0/16") (pfx "10.0.0.0/8"));
  check bool_t "self" true (Prefix.subsumes (pfx "10.0.0.0/8") (pfx "10.0.0.0/8"));
  check bool_t "disjoint" false (Prefix.subsumes (pfx "10.0.0.0/8") (pfx "11.0.0.0/8"))

let test_prefix_split () =
  match Prefix.split (pfx "10.0.0.0/8") with
  | Some (lo, hi) ->
      check string_t "low half" "10.0.0.0/9" (Prefix.to_string lo);
      check string_t "high half" "10.128.0.0/9" (Prefix.to_string hi)
  | None -> Alcotest.fail "split of /8 returned None"

let test_prefix_split_host () =
  check bool_t "no split of /32" true (Prefix.split (pfx "1.2.3.4/32") = None)

let test_prefix_last () =
  check string_t "broadcast" "10.0.255.255"
    (Ipv4.to_string (Prefix.last (pfx "10.0.0.0/16")))

(* ------------------------------------------------------------------ *)
(* Prefix_range                                                        *)
(* ------------------------------------------------------------------ *)

let test_range_ge () =
  (* The paper's "ge 24": match prefixes inside 1.2.3.0/24 of length >= 24. *)
  let r = Prefix_range.ge (pfx "1.2.3.0/24") 24 in
  check bool_t "matches /24" true (Prefix_range.matches r (pfx "1.2.3.0/24"));
  check bool_t "matches /25" true (Prefix_range.matches r (pfx "1.2.3.128/25"));
  check bool_t "matches /32" true (Prefix_range.matches r (pfx "1.2.3.77/32"));
  check bool_t "not outside" false (Prefix_range.matches r (pfx "1.2.4.0/24"));
  check bool_t "not shorter" false (Prefix_range.matches r (pfx "1.2.0.0/16"))

let test_range_exact () =
  let r = Prefix_range.exact (pfx "1.2.3.0/24") in
  check bool_t "matches itself" true (Prefix_range.matches r (pfx "1.2.3.0/24"));
  check bool_t "not longer" false (Prefix_range.matches r (pfx "1.2.3.0/25"))

let test_range_bounds_invalid () =
  Alcotest.check_raises "ge below base length" (Invalid_argument "Prefix_range.make: invalid bounds 1.2.3.0/24 ge 20 le 32")
    (fun () -> ignore (Prefix_range.make (pfx "1.2.3.0/24") ~ge:20 ~le:32))

(* How the Cisco printer renders [r]: the text after [permit] on the line
   of a one-entry prefix list. *)
let cisco_range_text r =
  let l = Policy.Prefix_list.make "l" [ Policy.Prefix_list.entry 5 r ] in
  let text =
    Cisco.Printer.print
      { (Policy.Config_ir.empty "r") with Policy.Config_ir.prefix_lists = [ l ] }
  in
  let lead = "ip prefix-list l seq 5 permit " in
  let line = List.find (String.starts_with ~prefix:lead) (String.split_on_char '\n' text) in
  String.sub line (String.length lead) (String.length line - String.length lead)

let test_range_to_string () =
  check string_t "exact" "1.2.3.0/24" (cisco_range_text (Prefix_range.exact (pfx "1.2.3.0/24")));
  check string_t "ge" "1.2.3.0/24 ge 25"
    (cisco_range_text (Prefix_range.make (pfx "1.2.3.0/24") ~ge:25 ~le:32));
  check string_t "ge le" "1.2.3.0/24 ge 25 le 30"
    (cisco_range_text (Prefix_range.make (pfx "1.2.3.0/24") ~ge:25 ~le:30))

(* ------------------------------------------------------------------ *)
(* Community / As_path                                                 *)
(* ------------------------------------------------------------------ *)

let test_community_parse () =
  check string_t "round trip" "100:1"
    (Community.to_string (Option.get (Community.of_string "100:1")));
  check bool_t "reject" true (Community.of_string "100" = None);
  check bool_t "reject big" true (Community.of_string "70000:1" = None);
  check bool_t "reject negative" true (Community.of_string "-1:1" = None)

let test_community_set () =
  let s = Community.Set.of_list [ Community.make 101 1; Community.make 100 1 ] in
  check string_t "ordered rendering" "100:1 101:1" (Community.Set.to_string s)

let test_as_path_basics () =
  let p = As_path.of_list [ 100; 200; 300 ] in
  check string_t "to_string" "100 200 300" (As_path.to_string p);
  check bool_t "of_string" true (As_path.of_string "100 200 300" = Some p);
  check int_t "length" 3 (As_path.length p);
  check bool_t "origin" true (As_path.origin p = Some 300);
  check bool_t "head" true (As_path.head p = Some 100);
  check string_t "prepend" "99 100 200 300" (As_path.to_string (As_path.prepend 99 p));
  check string_t "prepend_n" "7 7 7" (As_path.to_string (As_path.prepend_n 7 3 As_path.empty))

let test_as_path_regex () =
  let p = As_path.of_list [ 100; 200; 300 ] in
  check bool_t "underscore start" true (As_path.matches ~regex:"^100_" p);
  check bool_t "underscore middle" true (As_path.matches ~regex:"_200_" p);
  check bool_t "origin anchor" true (As_path.matches ~regex:"_300$" p);
  check bool_t "no false hit on 30" false (As_path.matches ~regex:"_30_" p);
  check bool_t "empty path ^$" true (As_path.matches ~regex:"^$" As_path.empty);
  check bool_t "any transit" true (As_path.matches ~regex:"_200_" p)

(* ------------------------------------------------------------------ *)
(* Json                                                                *)
(* ------------------------------------------------------------------ *)

let test_json_round_trip () =
  let v =
    Json.Obj
      [
        ("name", Json.String "R1");
        ("as", Json.Int 1);
        ("up", Json.Bool true);
        ("nothing", Json.Null);
        ("nums", Json.List [ Json.Int 1; Json.Int 2; Json.Float 3.5 ]);
        ("nested", Json.Obj [ ("k", Json.String "va\"lue\n") ]);
      ]
  in
  check bool_t "compact round trip" true (Json.of_string_exn (Json.to_string v) = v);
  check bool_t "pretty round trip" true
    (Json.of_string_exn (Json.to_string ~pretty:true v) = v)

let test_json_parse_errors () =
  List.iter
    (fun s -> check bool_t s true (Result.is_error (Json.of_string s)))
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "\"unterminated"; "{\"a\":1,}"; "1 2" ]

let test_json_accessors () =
  let v = Json.of_string_exn {|{"a": 1, "b": "x", "c": [true]}|} in
  check int_t "member int" 1 (Json.int_exn (Json.member_exn "a" v));
  check string_t "member str" "x" (Json.str_exn (Json.member_exn "b" v));
  check bool_t "missing member" true (Json.member "zz" v = None);
  check bool_t "list" true (Json.to_list (Json.member_exn "c" v) = Some [ Json.Bool true ])

(* ------------------------------------------------------------------ *)
(* Iface                                                               *)
(* ------------------------------------------------------------------ *)

let test_iface_names () =
  let e01 = Iface.ethernet ~slot:0 ~port:1 in
  check string_t "cisco" "Ethernet0/1" (Iface.cisco_name e01);
  check string_t "junos" "ge-0/0/1.0" (Iface.junos_name e01);
  check string_t "loopback junos" "lo0.0" (Iface.junos_name (Iface.loopback 0))

let test_iface_parse () =
  check bool_t "eth abbrev" true (Iface.of_cisco "eth0/1" = Some (Iface.ethernet ~slot:0 ~port:1));
  check bool_t "full name" true
    (Iface.of_cisco "Ethernet0/1" = Some (Iface.ethernet ~slot:0 ~port:1));
  check bool_t "loopback" true (Iface.of_cisco "Loopback0" = Some (Iface.loopback 0));
  check bool_t "junos ge" true
    (Iface.of_junos "ge-0/0/1.0" = Some (Iface.ethernet ~slot:0 ~port:1));
  check bool_t "junos lo" true (Iface.of_junos "lo0.0" = Some (Iface.loopback 0));
  check bool_t "garbage" true (Iface.of_cisco "Tunnel99" = None)

(* ------------------------------------------------------------------ *)
(* Topology / Star                                                     *)
(* ------------------------------------------------------------------ *)

let star7 = Star.make ~routers:7

let test_star_shape () =
  let t = star7.Star.topology in
  check int_t "router count" 7 (List.length t.Topology.routers);
  check int_t "link count" 6 (List.length t.Topology.links);
  check int_t "hub degree" 6 (List.length (Topology.sessions_of t "R1"));
  check int_t "spoke degree" 1 (List.length (Topology.sessions_of t "R4"))

let test_star_validates () =
  check bool_t "valid" true (Topology.validate star7.Star.topology = Ok ())

let test_star_addressing () =
  let t = star7.Star.topology in
  let r2 = Topology.find_router_exn t "R2" in
  check int_t "R2 AS" 2 r2.Topology.asn;
  check string_t "R2 router id" "1.0.0.2" (Ipv4.to_string r2.Topology.router_id);
  let sessions = Topology.sessions_of t "R2" in
  check int_t "R2 one session" 1 (List.length sessions);
  let s = List.hd sessions in
  check string_t "peer addr" "1.0.0.1" (Ipv4.to_string s.Topology.peer_addr);
  check int_t "peer as" 1 s.Topology.peer_asn

let test_star_networks () =
  let t = star7.Star.topology in
  let hub_nets = Topology.networks_of t "R1" in
  (* Customer net + 6 link subnets. *)
  check int_t "hub networks" 7 (List.length hub_nets);
  check bool_t "customer net first" true
    (Prefix.equal (List.hd hub_nets) (pfx "10.0.0.0/24"));
  let r3_nets = Topology.networks_of t "R3" in
  check bool_t "spoke announces isp net" true
    (List.exists (Prefix.equal (pfx "10.3.0.0/24")) r3_nets);
  check bool_t "spoke announces link net" true
    (List.exists (Prefix.equal (pfx "2.0.0.0/24")) r3_nets)

let test_star_communities () =
  check bool_t "R2 community" true
    (Star.community_of star7 "R2" = Some (Community.make 100 1));
  check bool_t "R6 community" true
    (Star.community_of star7 "R6" = Some (Community.make 104 1));
  check bool_t "hub has none" true (Star.community_of star7 "R1" = None)

let test_star_isp_prefixes () =
  check bool_t "R2 isp prefix" true (Star.isp_prefix star7 "R2" = Some (pfx "10.2.0.0/24"));
  check bool_t "unknown" true (Star.isp_prefix star7 "R99" = None)

let test_topology_json_round_trip () =
  let t = star7.Star.topology in
  match Topology.of_json (Json.of_string_exn (Json.to_string (Topology.to_json t))) with
  | Ok t' -> check bool_t "round trip" true (t = t')
  | Error e -> Alcotest.fail e

let contains = Netcore.Substring.contains

let test_substring_find () =
  let find sub s = Substring.find ~sub s in
  check (Alcotest.option int_t) "empty sub" (Some 0) (find "" "abc");
  check (Alcotest.option int_t) "at the start" (Some 0) (find "ab" "abc");
  check (Alcotest.option int_t) "at the end" (Some 1) (find "bc" "abc");
  check (Alcotest.option int_t) "first occurrence" (Some 1) (find "ab" "aabab");
  check (Alcotest.option int_t) "after a false start" (Some 1) (find "aab" "aaab");
  check (Alcotest.option int_t) "absent" None (find "abd" "abcabc");
  check (Alcotest.option int_t) "longer than the string" None (find "abcd" "abc");
  check bool_t "contains agrees" true (contains ~sub:"cab" "abcabc");
  check bool_t "contains on absence" false (contains ~sub:"x" "")

let test_topology_describe () =
  let d = Topology.describe star7.Star.topology in
  check bool_t "mentions connection" true
    (contains ~sub:"Router R1 is connected to router R2" d);
  check bool_t "mentions AS" true (contains ~sub:"Router R3 has AS number 3" d);
  let sd = Star.description star7 in
  check bool_t "mentions customer" true (contains ~sub:"CUSTOMER network" sd);
  check bool_t "mentions isp" true (contains ~sub:"belongs to ISP" sd)

let test_star_invalid_size () =
  Alcotest.check_raises "too small" (Invalid_argument "Star.make: need 2..200 routers")
    (fun () -> ignore (Star.make ~routers:1))

let test_star_shared () =
  let a = Star.make ~routers:9 in
  check bool_t "one value per size" true (a == Star.make ~routers:9);
  check bool_t "sizes apart" false (a == Star.make ~routers:10);
  Memo_table.reset ();
  let b = Star.make ~routers:9 in
  check bool_t "rebuilt equal after a reset" true (a = b && a != b)

let test_topology_validate_catches () =
  let t = star7.Star.topology in
  let broken =
    {
      t with
      Topology.routers =
        List.map
          (fun (r : Topology.router) ->
            if r.Topology.name = "R2" then { r with Topology.asn = -3 } else r)
          t.Topology.routers;
    }
  in
  match Topology.validate broken with
  | Error errs ->
      check bool_t "mentions AS error" true
        (List.exists (contains ~sub:"non-positive AS") errs)
  | Ok () -> Alcotest.fail "expected validation error"

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let any_addr_gen = QCheck2.Gen.map Ipv4.of_int (QCheck2.Gen.int_range 0 0xFFFFFFFF)

let prefix_gen =
  QCheck2.Gen.map2 (fun a l -> Prefix.make a l) any_addr_gen (QCheck2.Gen.int_range 0 32)

let prop_ipv4_round_trip =
  QCheck2.Test.make ~name:"ipv4 to_string/of_string round trip" ~count:500 any_addr_gen
    (fun a -> Ipv4.of_string (Ipv4.to_string a) = Some a)

let prop_prefix_round_trip =
  QCheck2.Test.make ~name:"prefix to_string/of_string round trip" ~count:500 prefix_gen
    (fun p -> Prefix.of_string (Prefix.to_string p) = Some p)

let prop_prefix_subsumption_network =
  QCheck2.Test.make ~name:"prefix contains its own addresses" ~count:500
    (QCheck2.Gen.pair prefix_gen any_addr_gen) (fun (p, a) ->
      let inside = Prefix.contains_addr p a in
      let recomputed = Ipv4.equal (Ipv4.network a (Prefix.len p)) (Prefix.addr p) in
      inside = recomputed)

let prop_prefix_split_partition =
  QCheck2.Test.make ~name:"split halves partition the parent" ~count:500
    (QCheck2.Gen.pair prefix_gen any_addr_gen) (fun (p, a) ->
      match Prefix.split p with
      | None -> Prefix.len p = 32
      | Some (lo, hi) ->
          let in_parent = Prefix.contains_addr p a in
          let in_halves = Prefix.contains_addr lo a || Prefix.contains_addr hi a in
          let in_both = Prefix.contains_addr lo a && Prefix.contains_addr hi a in
          in_parent = in_halves && not in_both)

let prop_json_round_trip =
  let rec value_gen depth =
    let open QCheck2.Gen in
    if depth = 0 then
      oneof
        [
          return Json.Null;
          map (fun b -> Json.Bool b) bool;
          map (fun n -> Json.Int n) (int_range (-1000000) 1000000);
          map (fun s -> Json.String s) (string_size ~gen:printable (int_bound 10));
        ]
    else
      oneof
        [
          map (fun n -> Json.Int n) (int_range (-1000) 1000);
          map (fun l -> Json.List l) (list_size (int_bound 4) (value_gen (depth - 1)));
          map
            (fun kvs -> Json.Obj kvs)
            (list_size (int_bound 4)
               (pair (string_size ~gen:printable (int_bound 6)) (value_gen (depth - 1))));
        ]
  in
  QCheck2.Test.make ~name:"json print/parse round trip" ~count:300 (value_gen 3)
    (fun v -> Json.of_string_exn (Json.to_string v) = v)

let prop_star_valid =
  QCheck2.Test.make ~name:"every star topology validates" ~count:50
    (QCheck2.Gen.int_range 2 40) (fun n ->
      Topology.validate (Star.make ~routers:n).Star.topology = Ok ())

let prop_star_json_round_trip =
  QCheck2.Test.make ~name:"star topology JSON round trip" ~count:30
    (QCheck2.Gen.int_range 2 20) (fun n ->
      let t = (Star.make ~routers:n).Star.topology in
      match Topology.of_json (Json.of_string_exn (Json.to_string (Topology.to_json t))) with
      | Ok t' -> t = t'
      | Error _ -> false)

let prop_community_round_trip =
  QCheck2.Test.make ~name:"community round trip" ~count:300
    (QCheck2.Gen.pair (QCheck2.Gen.int_bound 0xFFFF) (QCheck2.Gen.int_bound 0xFFFF))
    (fun (a, v) ->
      let c = Community.make a v in
      Community.of_string (Community.to_string c) = Some c)

let prop_as_path_round_trip =
  QCheck2.Test.make ~name:"as-path round trip" ~count:300
    (QCheck2.Gen.list_size (QCheck2.Gen.int_bound 6) (QCheck2.Gen.int_range 1 65535))
    (fun l ->
      let p = As_path.of_list l in
      As_path.of_string (As_path.to_string p) = Some p)

let prop_add_int_is_string_of_int =
  QCheck2.Test.make ~name:"Buf.add_int writes string_of_int" ~count:500
    QCheck2.Gen.(oneof [ int; oneofl [ 0; -1; 9; 10; -10; max_int; min_int ] ])
    (fun n ->
      let b = Buffer.create 4 in
      Buf.add_int b n;
      Buffer.contents b = string_of_int n)

(* The scanners that replaced [split_on_char] must accept exactly what
   these definitions accepted, [int_of_string_opt]'s syntax included. *)
let reference_ipv4 s =
  match String.split_on_char '.' s with
  | [ a; b; c; d ] -> (
      let octet x =
        match int_of_string_opt x with
        | Some v when v >= 0 && v <= 255 && String.length x > 0 -> Some v
        | _ -> None
      in
      match (octet a, octet b, octet c, octet d) with
      | Some a, Some b, Some c, Some d -> Some (Ipv4.of_octets a b c d)
      | _ -> None)
  | _ -> None

let reference_community s =
  match String.split_on_char ':' s with
  | [ a; v ] -> (
      match (int_of_string_opt a, int_of_string_opt v) with
      | Some a, Some v when a >= 0 && a <= 0xFFFF && v >= 0 && v <= 0xFFFF ->
          Some (Community.make a v)
      | _ -> None)
  | _ -> None

(* Number fields as [int_of_string_opt] reads them: signs, radix prefixes,
   underscores, leading zeros, overflow, and the values around each bound. *)
let field_gen =
  let open QCheck2.Gen in
  oneof
    [
      map string_of_int (int_range (-300) 70_000);
      map (Printf.sprintf "%04d") (int_bound 9999);
      map (fun n -> "000000" ^ string_of_int n) (int_bound 70_000);
      map2 ( ^ )
        (oneofl [ ""; "0x"; "0X"; "0o"; "0O"; "0b"; "0B"; "0u"; "0U"; "-"; "+"; "-0x"; "+0b"; "_" ])
        (string_size ~gen:(oneofl [ '0'; '1'; '2'; '5'; '7'; '9'; 'a'; 'F'; '_' ]) (int_range 0 6));
      oneofl
        [ ""; "_"; "1_"; "_1"; "1__2"; "0x"; "-0"; "+0"; "0x_1"; "0_x1"; "255"; "256"; "65535";
          "65536"; "0xFF"; "0x100"; "0xFFFF"; "0x10000"; "-0x7FFFFFFFFFFFFFFF";
          "0x7FFFFFFFFFFFFFFF"; "4611686018427387903"; "99999999999999999999"; " 1"; "1 " ];
      string_size ~gen:(oneofl [ '0'; '1'; '5'; '.'; ':'; 'x'; '_'; '-'; '+'; ' ' ]) (int_range 0 8);
    ]

(* Values near [0, bound] in every spelling [int_of_string_opt] accepts. *)
let spelled_gen bound =
  let open QCheck2.Gen in
  let binary n =
    let rec go n acc = if n = 0 then acc else go (n / 2) (string_of_int (n mod 2) ^ acc) in
    "0b" ^ go n (if n = 0 then "0" else "")
  in
  int_range 0 (bound + 2) >>= fun n ->
  oneofl
    [
      string_of_int n;
      Printf.sprintf "0x%x" n;
      Printf.sprintf "0X%X" n;
      Printf.sprintf "0o%o" n;
      Printf.sprintf "0u%d" n;
      binary n;
      Printf.sprintf "+%d" n;
      Printf.sprintf "-%d" n;
      Printf.sprintf "%07d" n;
      Printf.sprintf "%d_" n;
      String.concat "_" (List.map (String.make 1) (List.of_seq (String.to_seq (string_of_int n))));
    ]

let fields_gen sep ~bound ~fields =
  QCheck2.Gen.(
    map (String.concat sep)
      (frequency [ (6, return fields); (1, int_range 1 (fields + 1)) ] >>= fun n ->
       list_repeat n (frequency [ (3, spelled_gen bound); (1, field_gen) ])))

let prop_ipv4_of_string_matches_reference =
  QCheck2.Test.make ~name:"ipv4 of_string accepts what split+int_of_string did" ~count:3000
    ~print:(Printf.sprintf "%S") (fields_gen "." ~bound:255 ~fields:4)
    (fun s -> Ipv4.of_string s = reference_ipv4 s)

let prop_community_of_string_matches_reference =
  QCheck2.Test.make ~name:"community of_string accepts what split+int_of_string did"
    ~count:3000 ~print:(Printf.sprintf "%S") (fields_gen ":" ~bound:0xFFFF ~fields:2)
    (fun s -> Community.of_string s = reference_community s)

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_ipv4_round_trip;
      prop_prefix_round_trip;
      prop_prefix_subsumption_network;
      prop_prefix_split_partition;
      prop_json_round_trip;
      prop_star_valid;
      prop_star_json_round_trip;
      prop_community_round_trip;
      prop_as_path_round_trip;
      prop_add_int_is_string_of_int;
      prop_ipv4_of_string_matches_reference;
      prop_community_of_string_matches_reference;
    ]

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)
(* ------------------------------------------------------------------ *)

let test_rng_deterministic () =
  let a = Rng.make 7 and b = Rng.make 7 in
  let seq r = List.init 20 (fun _ -> Rng.int r 1000) in
  check bool_t "same seed same sequence" true (seq a = seq b);
  let c = Rng.make 8 in
  check bool_t "different seed different sequence" false (seq (Rng.make 7) = seq c)

let test_rng_float_range () =
  let r = Rng.make 1 in
  for _ = 1 to 1000 do
    let f = Rng.float r in
    if f < 0.0 || f >= 1.0 then Alcotest.failf "float out of range: %f" f
  done

let test_rng_choice () =
  let r = Rng.make 2 in
  check bool_t "empty" true (Rng.choice r [] = None);
  for _ = 1 to 100 do
    match Rng.choice r [ 1; 2; 3 ] with
    | Some x when x >= 1 && x <= 3 -> ()
    | _ -> Alcotest.fail "choice outside list"
  done

let test_rng_split_independent () =
  let r = Rng.make 3 in
  let a, b = Rng.split r in
  let seq r = List.init 10 (fun _ -> Rng.int r 1000) in
  check bool_t "split streams differ" false (seq a = seq b)

(* ------------------------------------------------------------------ *)
(* Memo tables: the one mechanism under every layer's table            *)
(* ------------------------------------------------------------------ *)

module Ints = Memo_table.Make (struct
  type t = int

  let hash = Hashtbl.hash
end)

let ask t k = Ints.find t k (fun () -> 2 * k)

(* Whether asking [k] ran the computation: a miss. *)
let recomputes name t k =
  let misses = (Memo_table.stats name).Memo_table.misses in
  check int_t "the cached value" (2 * k) (ask t k);
  (Memo_table.stats name).Memo_table.misses > misses

let test_memo_eviction () =
  let cap = 64 in
  let t = Ints.create ~name:"eviction" ~cap in
  for k = 0 to cap do
    ignore (ask t k : int)
  done;
  let s = Memo_table.stats "eviction" in
  check int_t "the insert past the cap evicts the oldest eighth" (cap / 8)
    s.Memo_table.evictions;
  check int_t "entries + evictions = inserts" (cap + 1)
    (s.Memo_table.entries + s.Memo_table.evictions);
  check bool_t "a recent key stays warm" false (recomputes "eviction" t cap);
  check bool_t "the oldest key kept stays warm" false (recomputes "eviction" t (cap / 8));
  check bool_t "an evicted key is recomputed" true (recomputes "eviction" t 0);
  for k = cap + 1 to 4 * cap do
    ignore (ask t k : int)
  done;
  let s = Memo_table.stats "eviction" in
  check bool_t "bounded" true (s.Memo_table.entries <= cap);
  check int_t "entries + evictions = inserts, batch after batch" ((4 * cap) + 2)
    (s.Memo_table.entries + s.Memo_table.evictions)

let test_memo_reset () =
  let a = Ints.create ~name:"reset a" ~cap:8 and b = Ints.create ~name:"reset b" ~cap:8 in
  for k = 0 to 9 do
    ignore (ask a k : int);
    ignore (ask b k : int);
    ignore (ask b k : int)
  done;
  check bool_t "filled, and b has hits" true
    ((Memo_table.stats "reset a").Memo_table.entries > 0
    && (Memo_table.stats "reset b").Memo_table.hits > 0);
  Memo_table.reset ();
  let empty = { Memo_table.hits = 0; misses = 0; entries = 0; evictions = 0 } in
  check bool_t "a empty and zeroed" true (Memo_table.stats "reset a" = empty);
  check bool_t "b empty and zeroed" true (Memo_table.stats "reset b" = empty);
  check bool_t "a computes afresh" true (recomputes "reset a" a 9)

let test_memo_raising () =
  let t = Ints.create ~name:"raising" ~cap:8 in
  (match Ints.find t 1 (fun () -> raise Exit) with
  | _ -> Alcotest.fail "the exception must propagate"
  | exception Exit -> ());
  let s = Memo_table.stats "raising" in
  check int_t "not counted as a miss" 0 s.Memo_table.misses;
  check int_t "nor as a hit" 0 s.Memo_table.hits;
  check int_t "nothing stored" 0 s.Memo_table.entries;
  check bool_t "the key computes again" true (recomputes "raising" t 1);
  check bool_t "and is then stored" false (recomputes "raising" t 1)

let test_memo_stats_by_name () =
  let a = Ints.create ~name:"shared" ~cap:8 and b = Ints.create ~name:"shared" ~cap:8 in
  ignore (ask a 1 : int);
  ignore (ask a 1 : int);
  ignore (ask b 1 : int);
  ignore (ask b 2 : int);
  check bool_t "summed over the tables sharing the name" true
    (Memo_table.stats "shared" = { Memo_table.hits = 1; misses = 3; entries = 3; evictions = 0 });
  check bool_t "an unknown name raises" true
    (match Memo_table.stats "no such table" with
    | _ -> false
    | exception Invalid_argument _ -> true)

let () =
  Alcotest.run "netcore"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "choice" `Quick test_rng_choice;
          Alcotest.test_case "split" `Quick test_rng_split_independent;
        ] );
      ( "ipv4",
        [
          Alcotest.test_case "parse/print" `Quick test_ipv4_parse_print;
          Alcotest.test_case "rejects malformed" `Quick test_ipv4_reject;
          Alcotest.test_case "octets" `Quick test_ipv4_octets;
          Alcotest.test_case "bit indexing" `Quick test_ipv4_bits;
          Alcotest.test_case "mask and network" `Quick test_ipv4_mask_network;
          Alcotest.test_case "succ wraps" `Quick test_ipv4_succ_wraps;
        ] );
      ( "prefix",
        [
          Alcotest.test_case "normalizes host bits" `Quick test_prefix_normalizes;
          Alcotest.test_case "parse" `Quick test_prefix_parse;
          Alcotest.test_case "contains" `Quick test_prefix_contains;
          Alcotest.test_case "subsumes" `Quick test_prefix_subsumes;
          Alcotest.test_case "split" `Quick test_prefix_split;
          Alcotest.test_case "split host" `Quick test_prefix_split_host;
          Alcotest.test_case "last address" `Quick test_prefix_last;
        ] );
      ( "prefix-range",
        [
          Alcotest.test_case "ge semantics" `Quick test_range_ge;
          Alcotest.test_case "exact semantics" `Quick test_range_exact;
          Alcotest.test_case "invalid bounds" `Quick test_range_bounds_invalid;
          Alcotest.test_case "rendering" `Quick test_range_to_string;
        ] );
      ( "community",
        [
          Alcotest.test_case "parse" `Quick test_community_parse;
          Alcotest.test_case "set rendering" `Quick test_community_set;
        ] );
      ( "as-path",
        [
          Alcotest.test_case "basics" `Quick test_as_path_basics;
          Alcotest.test_case "regex with underscore" `Quick test_as_path_regex;
        ] );
      ( "json",
        [
          Alcotest.test_case "round trip" `Quick test_json_round_trip;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
        ] );
      ( "iface",
        [
          Alcotest.test_case "naming" `Quick test_iface_names;
          Alcotest.test_case "parsing" `Quick test_iface_parse;
        ] );
      ( "topology",
        [
          Alcotest.test_case "star shape" `Quick test_star_shape;
          Alcotest.test_case "star validates" `Quick test_star_validates;
          Alcotest.test_case "star addressing" `Quick test_star_addressing;
          Alcotest.test_case "star networks" `Quick test_star_networks;
          Alcotest.test_case "star communities" `Quick test_star_communities;
          Alcotest.test_case "star isp prefixes" `Quick test_star_isp_prefixes;
          Alcotest.test_case "json round trip" `Quick test_topology_json_round_trip;
          Alcotest.test_case "describe" `Quick test_topology_describe;
          Alcotest.test_case "substring find" `Quick test_substring_find;
          Alcotest.test_case "invalid size" `Quick test_star_invalid_size;
          Alcotest.test_case "one star per size" `Quick test_star_shared;
          Alcotest.test_case "validate catches bad AS" `Quick test_topology_validate_catches;
        ] );
      ( "memo-table",
        [
          Alcotest.test_case "eviction: the oldest eighth" `Quick test_memo_eviction;
          Alcotest.test_case "reset empties every table" `Quick test_memo_reset;
          Alcotest.test_case "a raising computation stores nothing" `Quick test_memo_raising;
          Alcotest.test_case "stats by name" `Quick test_memo_stats_by_name;
        ] );
      ("properties", props);
    ]
