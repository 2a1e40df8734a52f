(* Unit and property tests for the vendor-neutral policy IR and its
   concrete evaluator. *)

open Netcore
open Policy

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int
let string_t = Alcotest.string
let pfx = Prefix.of_string_exn
let comm s = Option.get (Community.of_string s)
let ip = Ipv4.of_string_exn

(* ------------------------------------------------------------------ *)
(* Prefix lists                                                        *)
(* ------------------------------------------------------------------ *)

let test_prefix_list_first_match () =
  let l =
    Prefix_list.make "l"
      [
        Prefix_list.entry ~action:Action.Deny 5
          (Prefix_range.exact (pfx "1.2.3.0/24"));
        Prefix_list.entry 10 (Prefix_range.orlonger (pfx "1.2.0.0/16"));
      ]
  in
  check bool_t "denied by first entry" false (Prefix_list.matches l (pfx "1.2.3.0/24"));
  check bool_t "permitted by second" true (Prefix_list.matches l (pfx "1.2.4.0/24"));
  check bool_t "longer under deny still hits second" true
    (Prefix_list.matches l (pfx "1.2.3.0/25"));
  check bool_t "implicit deny" false (Prefix_list.matches l (pfx "9.9.9.0/24"))

let test_prefix_list_sorts_by_seq () =
  let l =
    Prefix_list.make "l"
      [
        Prefix_list.entry 20 (Prefix_range.orlonger (pfx "0.0.0.0/0"));
        Prefix_list.entry ~action:Action.Deny 10 (Prefix_range.exact (pfx "5.0.0.0/8"));
      ]
  in
  check bool_t "entry 10 applies first" false (Prefix_list.matches l (pfx "5.0.0.0/8"))

let test_prefix_list_duplicate_seq () =
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Prefix_list.make: duplicate seq 5 in l") (fun () ->
      ignore
        (Prefix_list.make "l"
           [
             Prefix_list.entry 5 (Prefix_range.exact (pfx "1.0.0.0/8"));
             Prefix_list.entry 5 (Prefix_range.exact (pfx "2.0.0.0/8"));
           ]))

(* ------------------------------------------------------------------ *)
(* Community lists                                                     *)
(* ------------------------------------------------------------------ *)

let test_community_list_all_of_entry () =
  (* One entry listing two communities requires BOTH (AND within entry). *)
  let l = Community_list.make "cl" [ Community_list.entry [ comm "100:1"; comm "101:1" ] ] in
  check bool_t "both present" true
    (Community_list.matches l (Community.Set.of_list [ comm "100:1"; comm "101:1" ]));
  check bool_t "one missing" false
    (Community_list.matches l (Community.Set.singleton (comm "100:1")))

let test_community_list_any_of_entries () =
  (* Two single-community entries: either suffices (OR across entries). *)
  let l =
    Community_list.make "cl"
      [ Community_list.entry [ comm "100:1" ]; Community_list.entry [ comm "101:1" ] ]
  in
  check bool_t "first" true (Community_list.matches l (Community.Set.singleton (comm "100:1")));
  check bool_t "second" true (Community_list.matches l (Community.Set.singleton (comm "101:1")));
  check bool_t "neither" false (Community_list.matches l (Community.Set.singleton (comm "9:9")))

let test_community_list_deny_entry () =
  let l =
    Community_list.make "cl"
      [
        Community_list.entry ~action:Action.Deny [ comm "100:1" ];
        Community_list.entry [ comm "100:1"; comm "101:1" ];
      ]
  in
  (* The deny entry matches any set containing 100:1 and fires first. *)
  check bool_t "deny shadows" false
    (Community_list.matches l (Community.Set.of_list [ comm "100:1"; comm "101:1" ]))

(* ------------------------------------------------------------------ *)
(* As-path lists                                                       *)
(* ------------------------------------------------------------------ *)

let test_as_path_list () =
  let l =
    As_path_list.make "no-transit"
      [
        As_path_list.entry ~action:Action.Deny "_100_";
        As_path_list.entry ".*";
      ]
  in
  check bool_t "deny through 100" false
    (As_path_list.matches l (As_path.of_list [ 200; 100; 300 ]));
  check bool_t "permit others" true (As_path_list.matches l (As_path.of_list [ 200; 300 ]))

(* ------------------------------------------------------------------ *)
(* Route-map evaluation                                                *)
(* ------------------------------------------------------------------ *)

let env =
  {
    Eval.prefix_lists =
      [
        Prefix_list.make "our-networks"
          [ Prefix_list.entry 5 (Prefix_range.ge (pfx "1.2.3.0/24") 24) ];
      ];
    community_lists =
      [
        Community_list.make "cl1" [ Community_list.entry [ comm "100:1" ] ];
        Community_list.make "cl2" [ Community_list.entry [ comm "101:1" ] ];
      ];
    as_path_lists = [ As_path_list.make "al" [ As_path_list.entry "^65000_" ] ];
  }

let route ?(comms = []) ?(med = 0) ?(source = Route.Bgp) ?(path = []) p =
  Route.make
    ~communities:(Community.Set.of_list (List.map comm comms))
    ~med ~source ~as_path:(As_path.of_list path) (pfx p)

let test_eval_first_match_permit () =
  let m =
    Route_map.make "m"
      [
        Route_map.entry ~matches:[ Route_map.Match_prefix_list "our-networks" ]
          ~sets:[ Route_map.Set_med 50 ] 10;
        Route_map.entry 20;
      ]
  in
  (match Eval.eval env m (route "1.2.3.0/25") with
  | Eval.Permitted r -> check int_t "med set" 50 r.Route.med
  | Eval.Denied -> Alcotest.fail "expected permit");
  match Eval.eval env m (route "9.9.9.0/24") with
  | Eval.Permitted r -> check int_t "med unchanged" 0 r.Route.med
  | Eval.Denied -> Alcotest.fail "expected permit via catch-all"

let test_eval_implicit_deny () =
  let m =
    Route_map.make "m"
      [ Route_map.entry ~matches:[ Route_map.Match_prefix_list "our-networks" ] 10 ]
  in
  check bool_t "implicit deny" true (Eval.eval env m (route "9.9.9.0/24") = Eval.Denied)

let test_eval_and_within_entry () =
  (* The paper's AND/OR confusion: both communities required in one entry. *)
  let and_map =
    Route_map.make "and"
      [
        Route_map.entry ~action:Action.Deny
          ~matches:
            [ Route_map.Match_community_list "cl1"; Route_map.Match_community_list "cl2" ]
          10;
        Route_map.entry 20;
      ]
  in
  check bool_t "both -> denied" true
    (Eval.eval env and_map (route ~comms:[ "100:1"; "101:1" ] "5.0.0.0/24") = Eval.Denied);
  check bool_t "only one -> permitted" true
    (match Eval.eval env and_map (route ~comms:[ "100:1" ] "5.0.0.0/24") with
    | Eval.Permitted _ -> true
    | Eval.Denied -> false)

let test_eval_or_across_entries () =
  let or_map =
    Route_map.make "or"
      [
        Route_map.entry ~action:Action.Deny
          ~matches:[ Route_map.Match_community_list "cl1" ] 10;
        Route_map.entry ~action:Action.Deny
          ~matches:[ Route_map.Match_community_list "cl2" ] 20;
        Route_map.entry 30;
      ]
  in
  check bool_t "first alone denied" true
    (Eval.eval env or_map (route ~comms:[ "100:1" ] "5.0.0.0/24") = Eval.Denied);
  check bool_t "second alone denied" true
    (Eval.eval env or_map (route ~comms:[ "101:1" ] "5.0.0.0/24") = Eval.Denied);
  check bool_t "clean permitted" true
    (match Eval.eval env or_map (route "5.0.0.0/24") with
    | Eval.Permitted _ -> true
    | Eval.Denied -> false)

let test_eval_set_community_replace_vs_additive () =
  let base = route ~comms:[ "7:7" ] "5.0.0.0/24" in
  let replace =
    Route_map.make "r"
      [
        Route_map.entry
          ~sets:[ Route_map.Set_community { communities = [ comm "100:1" ]; additive = false } ]
          10;
      ]
  in
  let additive =
    Route_map.make "a"
      [
        Route_map.entry
          ~sets:[ Route_map.Set_community { communities = [ comm "100:1" ]; additive = true } ]
          10;
      ]
  in
  (match Eval.eval env replace base with
  | Eval.Permitted r ->
      check string_t "replaced" "100:1" (Community.Set.to_string r.Route.communities)
  | Eval.Denied -> Alcotest.fail "expected permit");
  match Eval.eval env additive base with
  | Eval.Permitted r ->
      check string_t "added" "7:7 100:1" (Community.Set.to_string r.Route.communities)
  | Eval.Denied -> Alcotest.fail "expected permit"

let test_eval_source_protocol () =
  let m =
    Route_map.make "m"
      [
        Route_map.entry ~matches:[ Route_map.Match_source_protocol Route.Bgp ] 10;
      ]
  in
  check bool_t "bgp passes" true
    (match Eval.eval env m (route ~source:Route.Bgp "5.0.0.0/24") with
    | Eval.Permitted _ -> true
    | _ -> false);
  check bool_t "ospf denied" true
    (Eval.eval env m (route ~source:Route.Ospf "5.0.0.0/24") = Eval.Denied)

let test_eval_med_match_and_set () =
  let m =
    Route_map.make "m"
      [
        Route_map.entry ~matches:[ Route_map.Match_med 5 ]
          ~sets:[ Route_map.Set_local_pref 200 ] 10;
      ]
  in
  (match Eval.eval env m (route ~med:5 "5.0.0.0/24") with
  | Eval.Permitted r -> check int_t "lp" 200 r.Route.local_pref
  | Eval.Denied -> Alcotest.fail "expected permit");
  check bool_t "other med denied" true (Eval.eval env m (route ~med:6 "5.0.0.0/24") = Eval.Denied)

let test_eval_as_path_match () =
  let m =
    Route_map.make "m" [ Route_map.entry ~matches:[ Route_map.Match_as_path "al" ] 10 ]
  in
  check bool_t "matching path" true
    (match Eval.eval env m (route ~path:[ 65000; 100 ] "5.0.0.0/24") with
    | Eval.Permitted _ -> true
    | _ -> false);
  check bool_t "non-matching path" true
    (Eval.eval env m (route ~path:[ 100; 65000 ] "5.0.0.0/24") = Eval.Denied)

let test_eval_undefined_list_matches_nothing () =
  let m =
    Route_map.make "m"
      [ Route_map.entry ~matches:[ Route_map.Match_prefix_list "nope" ] 10 ]
  in
  check bool_t "undefined -> deny" true (Eval.eval env m (route "5.0.0.0/24") = Eval.Denied)

let test_eval_comm_delete () =
  let env =
    { env with
      Eval.community_lists =
        Community_list.make "del" [ Community_list.entry [ comm "100:1" ] ]
        :: env.Eval.community_lists }
  in
  let m =
    Route_map.make "m"
      [ Route_map.entry ~sets:[ Route_map.Set_community_delete "del" ] 10 ]
  in
  match Eval.eval env m (route ~comms:[ "100:1"; "7:7" ] "5.0.0.0/24") with
  | Eval.Permitted r ->
      check string_t "kept others" "7:7" (Community.Set.to_string r.Route.communities)
  | Eval.Denied -> Alcotest.fail "expected permit"

let test_eval_prepend () =
  let m =
    Route_map.make "m"
      [ Route_map.entry ~sets:[ Route_map.Set_as_path_prepend [ 1; 1 ] ] 10 ]
  in
  match Eval.eval env m (route ~path:[ 9 ] "5.0.0.0/24") with
  | Eval.Permitted r -> check string_t "prepended" "1 1 9" (As_path.to_string r.Route.as_path)
  | Eval.Denied -> Alcotest.fail "expected permit"

let test_eval_optional_none_permits () =
  check bool_t "no policy permits unchanged" true
    (match Eval.eval_optional env None (route "5.0.0.0/24") with
    | Eval.Permitted r -> Route.equal r (route "5.0.0.0/24")
    | Eval.Denied -> false)

(* ------------------------------------------------------------------ *)
(* Config IR                                                           *)
(* ------------------------------------------------------------------ *)

let test_config_ir_references () =
  let c = Config_ir.empty "r" in
  let c =
    {
      c with
      Config_ir.route_maps =
        [
          Route_map.make "m"
            [ Route_map.entry ~matches:[ Route_map.Match_prefix_list "missing-pl" ] 10 ];
        ];
      bgp =
        Some
          {
            Config_ir.asn = 1;
            router_id = None;
            networks = [];
            neighbors =
              [ Config_ir.neighbor (ip "1.0.0.2") ~remote_as:2 ~import_policy:"missing-rm" ];
            redistributions = [];
          };
    }
  in
  let missing = Config_ir.undefined_references c in
  check bool_t "missing prefix list" true (List.mem "prefix-list missing-pl" missing);
  check bool_t "missing route map" true (List.mem "route-map missing-rm" missing)

let test_config_ir_connected () =
  let c =
    {
      (Config_ir.empty "r") with
      Config_ir.interfaces =
        [
          Config_ir.interface ~address:(ip "10.0.0.1", 24) (Iface.ethernet ~slot:0 ~port:0);
          Config_ir.interface ~address:(ip "9.0.0.1", 24) ~shutdown:true
            (Iface.ethernet ~slot:0 ~port:1);
          Config_ir.interface (Iface.loopback 0);
        ];
    }
  in
  let nets = Config_ir.connected_prefixes c in
  check int_t "only live addressed ifaces" 1 (List.length nets);
  check bool_t "subnet" true (Prefix.equal (List.hd nets) (pfx "10.0.0.0/24"))

let test_config_ir_with_route_map () =
  let c = Config_ir.empty "r" in
  let c = Config_ir.with_route_map c (Route_map.permit_all "m") in
  let c =
    Config_ir.with_route_map c (Route_map.make "m" [ Route_map.entry ~action:Action.Deny 10 ])
  in
  check int_t "replaced, not duplicated" 1 (List.length c.Config_ir.route_maps);
  match Config_ir.find_route_map c "m" with
  | Some m ->
      check bool_t "is the deny version" true
        ((List.hd m.Route_map.entries).Route_map.action = Action.Deny)
  | None -> Alcotest.fail "map not found"

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prefix_gen =
  QCheck2.Gen.map2
    (fun a l -> Prefix.make (Ipv4.of_int a) l)
    (QCheck2.Gen.int_range 0 0xFFFFFFFF)
    (QCheck2.Gen.int_range 0 32)

let range_gen =
  let open QCheck2.Gen in
  prefix_gen >>= fun base ->
  int_range (Prefix.len base) 32 >>= fun ge ->
  int_range ge 32 >>= fun le -> return (Prefix_range.make base ~ge ~le)

let prop_range_matches_definition =
  QCheck2.Test.make ~name:"prefix-range matches = subsume + len bounds" ~count:500
    (QCheck2.Gen.pair range_gen prefix_gen) (fun (r, q) ->
      Prefix_range.matches r q
      = (Prefix.subsumes (Prefix_range.base r) q
        && Prefix_range.ge_bound r <= Prefix.len q
        && Prefix.len q <= Prefix_range.le_bound r))

let prop_prefix_list_monotone_deny =
  (* Adding a leading deny entry can only shrink the permitted set. *)
  QCheck2.Test.make ~name:"leading deny entry shrinks prefix list" ~count:200
    (QCheck2.Gen.triple range_gen range_gen prefix_gen) (fun (r1, r2, q) ->
      let base = Prefix_list.make "l" [ Prefix_list.entry 10 r1 ] in
      let guarded =
        Prefix_list.make "l"
          [ Prefix_list.entry ~action:Action.Deny 5 r2; Prefix_list.entry 10 r1 ]
      in
      (not (Prefix_list.matches guarded q)) || Prefix_list.matches base q)

let prop_additive_superset =
  (* additive set community yields a superset of the original set. *)
  let comm_gen =
    QCheck2.Gen.map2 Community.make (QCheck2.Gen.int_bound 500) (QCheck2.Gen.int_bound 500)
  in
  QCheck2.Test.make ~name:"additive community set is a superset" ~count:300
    (QCheck2.Gen.triple (QCheck2.Gen.list_size (QCheck2.Gen.int_bound 4) comm_gen)
       comm_gen prefix_gen) (fun (cs, c, p) ->
      let r = Route.make ~communities:(Community.Set.of_list cs) p in
      let m =
        Route_map.make "m"
          [
            Route_map.entry
              ~sets:[ Route_map.Set_community { communities = [ c ]; additive = true } ]
              10;
          ]
      in
      match Eval.eval (Eval.env_of_config (Config_ir.empty "r")) m r with
      | Eval.Permitted r' ->
          Community.Set.subset r.Route.communities r'.Route.communities
          && Community.Set.mem c r'.Route.communities
      | Eval.Denied -> false)

let props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_range_matches_definition; prop_prefix_list_monotone_deny; prop_additive_superset ]

let () =
  Alcotest.run "policy"
    [
      ( "prefix-list",
        [
          Alcotest.test_case "first match" `Quick test_prefix_list_first_match;
          Alcotest.test_case "sorted by seq" `Quick test_prefix_list_sorts_by_seq;
          Alcotest.test_case "duplicate seq rejected" `Quick test_prefix_list_duplicate_seq;
        ] );
      ( "community-list",
        [
          Alcotest.test_case "AND within entry" `Quick test_community_list_all_of_entry;
          Alcotest.test_case "OR across entries" `Quick test_community_list_any_of_entries;
          Alcotest.test_case "deny entry shadows" `Quick test_community_list_deny_entry;
        ] );
      ("as-path-list", [ Alcotest.test_case "deny then permit" `Quick test_as_path_list ]);
      ( "eval",
        [
          Alcotest.test_case "first match permit" `Quick test_eval_first_match_permit;
          Alcotest.test_case "implicit deny" `Quick test_eval_implicit_deny;
          Alcotest.test_case "AND within entry" `Quick test_eval_and_within_entry;
          Alcotest.test_case "OR across entries" `Quick test_eval_or_across_entries;
          Alcotest.test_case "replace vs additive" `Quick
            test_eval_set_community_replace_vs_additive;
          Alcotest.test_case "source protocol" `Quick test_eval_source_protocol;
          Alcotest.test_case "med match and set" `Quick test_eval_med_match_and_set;
          Alcotest.test_case "as-path match" `Quick test_eval_as_path_match;
          Alcotest.test_case "undefined list" `Quick test_eval_undefined_list_matches_nothing;
          Alcotest.test_case "community delete" `Quick test_eval_comm_delete;
          Alcotest.test_case "as-path prepend" `Quick test_eval_prepend;
          Alcotest.test_case "no policy permits" `Quick test_eval_optional_none_permits;
        ] );
      ( "config-ir",
        [
          Alcotest.test_case "undefined references" `Quick test_config_ir_references;
          Alcotest.test_case "connected prefixes" `Quick test_config_ir_connected;
          Alcotest.test_case "with_route_map replaces" `Quick test_config_ir_with_route_map;
        ] );
      ("properties", props);
    ]
