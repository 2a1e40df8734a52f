(* Tests for the symbolic route-space engine, centred on agreement between
   the symbolic semantics and the concrete evaluator. *)

open Netcore
open Policy
open Symbolic

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int
let pfx = Prefix.of_string_exn
let comm = Community.of_string_exn

(* ------------------------------------------------------------------ *)
(* Len_set                                                             *)
(* ------------------------------------------------------------------ *)

let test_len_set_basics () =
  let s = Len_set.range 24 32 in
  check bool_t "mem 24" true (Len_set.mem 24 s);
  check bool_t "mem 32" true (Len_set.mem 32 s);
  check bool_t "not 23" false (Len_set.mem 23 s);
  check int_t "cardinal" 9 (Len_set.cardinal s);
  check bool_t "min" true (Len_set.min_elt s = Some 24);
  check bool_t "max" true (Len_set.max_elt s = Some 32);
  check bool_t "empty range" true (Len_set.is_empty (Len_set.range 5 4));
  check bool_t "full card" true (Len_set.cardinal Len_set.full = 33)

let test_len_set_algebra () =
  let a = Len_set.range 8 16 and b = Len_set.range 12 24 in
  check bool_t "inter" true (Len_set.equal (Len_set.inter a b) (Len_set.range 12 16));
  check bool_t "union" true (Len_set.equal (Len_set.union a b) (Len_set.range 8 24));
  check bool_t "diff" true (Len_set.equal (Len_set.diff a b) (Len_set.range 8 11));
  check bool_t "subset" true (Len_set.subset (Len_set.range 10 12) a)

(* ------------------------------------------------------------------ *)
(* Prefix_space                                                        *)
(* ------------------------------------------------------------------ *)

let space_of s = Prefix_space.exact (pfx s)

let test_space_exact_membership () =
  let s = space_of "1.2.3.0/24" in
  check bool_t "member" true (Prefix_space.mem (pfx "1.2.3.0/24") s);
  check bool_t "longer not member" false (Prefix_space.mem (pfx "1.2.3.0/25") s)

let test_space_orlonger () =
  let s = Prefix_space.of_range (Prefix_range.orlonger (pfx "10.0.0.0/8")) in
  check bool_t "self" true (Prefix_space.mem (pfx "10.0.0.0/8") s);
  check bool_t "deeper" true (Prefix_space.mem (pfx "10.1.0.0/16") s);
  check bool_t "host" true (Prefix_space.mem (pfx "10.9.9.9/32") s);
  check bool_t "shorter" false (Prefix_space.mem (pfx "0.0.0.0/0") s);
  check bool_t "outside" false (Prefix_space.mem (pfx "11.0.0.0/8") s)

let test_space_diff_peels () =
  (* Remove a /16 subtree from a /8 subtree: the /16's prefixes vanish but
     siblings and path prefixes stay. *)
  let big = Prefix_space.of_range (Prefix_range.orlonger (pfx "10.0.0.0/8")) in
  let hole = Prefix_space.of_range (Prefix_range.orlonger (pfx "10.1.0.0/16")) in
  let s = Prefix_space.diff big hole in
  check bool_t "hole gone" false (Prefix_space.mem (pfx "10.1.0.0/16") s);
  check bool_t "deep hole gone" false (Prefix_space.mem (pfx "10.1.2.0/24") s);
  check bool_t "sibling stays" true (Prefix_space.mem (pfx "10.2.0.0/16") s);
  check bool_t "path prefix stays" true (Prefix_space.mem (pfx "10.0.0.0/12") s);
  check bool_t "root stays" true (Prefix_space.mem (pfx "10.0.0.0/8") s)

let test_space_diff_lengths_only () =
  let all24up = Prefix_space.of_range (Prefix_range.ge (pfx "1.2.3.0/24") 24) in
  let exact24 = space_of "1.2.3.0/24" in
  let s = Prefix_space.diff all24up exact24 in
  check bool_t "24 gone" false (Prefix_space.mem (pfx "1.2.3.0/24") s);
  check bool_t "25 stays" true (Prefix_space.mem (pfx "1.2.3.0/25") s)

let test_space_sample () =
  let s = Prefix_space.of_range (Prefix_range.make (pfx "1.2.3.0/24") ~ge:25 ~le:30) in
  (match Prefix_space.sample s with
  | Some p ->
      check bool_t "sample inside" true (Prefix_space.mem p s);
      check int_t "sample shortest" 25 (Prefix.len p)
  | None -> Alcotest.fail "expected sample");
  check bool_t "empty sample" true (Prefix_space.sample Prefix_space.empty = None)

let test_space_full_minus_full_empty () =
  check bool_t "full \\ full" true
    (Prefix_space.is_empty (Prefix_space.diff Prefix_space.full Prefix_space.full));
  check bool_t "full = full" true (Prefix_space.equal Prefix_space.full Prefix_space.full)

(* Property: membership agrees with set algebra on random spaces. *)

(* Draw prefixes from a compact pool so intersections are non-trivial. *)
let pooled_prefix_gen =
  let pool =
    [
      "0.0.0.0/0"; "10.0.0.0/8"; "10.1.0.0/16"; "10.1.2.0/24"; "10.1.2.128/25";
      "10.2.0.0/16"; "11.0.0.0/8"; "10.1.2.0/25"; "10.1.3.0/24"; "10.1.2.4/30";
      "10.1.2.4/32"; "10.128.0.0/9";
    ]
  in
  QCheck2.Gen.map (fun i -> pfx (List.nth pool i)) (QCheck2.Gen.int_bound (List.length pool - 1))

let range_gen =
  let open QCheck2.Gen in
  pooled_prefix_gen >>= fun base ->
  int_range (Prefix.len base) 32 >>= fun ge ->
  int_range ge 32 >>= fun le -> return (Prefix_range.make base ~ge ~le)

let space_gen =
  let open QCheck2.Gen in
  list_size (int_range 1 4) range_gen >>= fun ranges ->
  return (Prefix_space.of_ranges ranges)

let query_gen =
  let open QCheck2.Gen in
  pooled_prefix_gen >>= fun base ->
  int_range (Prefix.len base) 32 >>= fun l -> return (Prefix.make (Prefix.addr base) l)

let prop_space_union =
  QCheck2.Test.make ~name:"space union membership" ~count:400
    QCheck2.Gen.(triple space_gen space_gen query_gen) (fun (a, b, q) ->
      Prefix_space.mem q (Prefix_space.union a b)
      = (Prefix_space.mem q a || Prefix_space.mem q b))

let prop_space_inter =
  QCheck2.Test.make ~name:"space inter membership" ~count:400
    QCheck2.Gen.(triple space_gen space_gen query_gen) (fun (a, b, q) ->
      Prefix_space.mem q (Prefix_space.inter a b)
      = (Prefix_space.mem q a && Prefix_space.mem q b))

let prop_space_diff =
  QCheck2.Test.make ~name:"space diff membership" ~count:400
    QCheck2.Gen.(triple space_gen space_gen query_gen) (fun (a, b, q) ->
      Prefix_space.mem q (Prefix_space.diff a b)
      = (Prefix_space.mem q a && not (Prefix_space.mem q b)))

let prop_space_sample_sound =
  QCheck2.Test.make ~name:"space sample is a member" ~count:400 space_gen (fun s ->
      match Prefix_space.sample s with
      | Some p -> Prefix_space.mem p s
      | None -> Prefix_space.is_empty s)

let prop_space_diff_then_union_restores =
  QCheck2.Test.make ~name:"(a\\b) U (a^b) = a" ~count:200
    QCheck2.Gen.(pair space_gen space_gen) (fun (a, b) ->
      let rebuilt =
        Prefix_space.union (Prefix_space.diff a b) (Prefix_space.inter a b)
      in
      Prefix_space.equal rebuilt a)

(* ------------------------------------------------------------------ *)
(* Int_constr / Comm_constr                                            *)
(* ------------------------------------------------------------------ *)

let test_int_constr () =
  check bool_t "eq inter eq" true (Int_constr.inter (Int_constr.eq 5) (Int_constr.eq 5) = Some (Int_constr.eq 5));
  check bool_t "eq inter other" true (Int_constr.inter (Int_constr.eq 5) (Int_constr.eq 6) = None);
  check bool_t "eq inter neq" true
    (Int_constr.inter (Int_constr.eq 5) (Int_constr.neq [ 5 ]) = None);
  check int_t "sample avoids neq" 2 (Int_constr.sample (Int_constr.neq [ 0; 1 ]));
  check bool_t "complement of eq" true
    (Int_constr.complement (Int_constr.eq 3) = [ Int_constr.neq [ 3 ] ]);
  check bool_t "satisfies" true (Int_constr.satisfies 7 (Int_constr.neq [ 1; 2 ]))

let test_comm_constr () =
  let c1 = Comm_constr.require (comm "100:1") in
  let c2 = Comm_constr.forbid (comm "100:1") in
  check bool_t "contradiction" true (Comm_constr.inter c1 c2 = None);
  let both =
    Comm_constr.inter (Comm_constr.require (comm "100:1")) (Comm_constr.require (comm "101:1"))
  in
  (match both with
  | Some c ->
      check bool_t "sample has both" true
        (Comm_constr.satisfies (Comm_constr.sample c) c);
      check bool_t "one is not enough" false
        (Comm_constr.satisfies (Community.Set.singleton (comm "100:1")) c)
  | None -> Alcotest.fail "expected satisfiable");
  (* complement of (must 100:1) is (must_not 100:1) *)
  match Comm_constr.complement c1 with
  | [ piece ] ->
      check bool_t "complement excludes" false
        (Comm_constr.satisfies (Community.Set.singleton (comm "100:1")) piece);
      check bool_t "complement admits empty" true
        (Comm_constr.satisfies Community.Set.empty piece)
  | _ -> Alcotest.fail "expected one complement piece"

(* ------------------------------------------------------------------ *)
(* Guards and transfer vs concrete eval                                *)
(* ------------------------------------------------------------------ *)

let comms_pool = [ comm "100:1"; comm "101:1"; comm "102:1" ]

let env =
  {
    Eval.prefix_lists =
      [
        Prefix_list.make "p24"
          [ Prefix_list.entry 5 (Prefix_range.ge (pfx "1.2.3.0/24") 24) ];
        Prefix_list.make "mixed"
          [
            Prefix_list.entry ~action:Action.Deny 5
              (Prefix_range.exact (pfx "10.1.0.0/16"));
            Prefix_list.entry 10 (Prefix_range.orlonger (pfx "10.0.0.0/8"));
          ];
      ];
    community_lists =
      [
        Community_list.make "c0" [ Community_list.entry [ comm "100:1" ] ];
        Community_list.make "c1" [ Community_list.entry [ comm "101:1" ] ];
        Community_list.make "cboth"
          [ Community_list.entry [ comm "100:1"; comm "101:1" ] ];
        Community_list.make "cany"
          [
            Community_list.entry [ comm "100:1" ];
            Community_list.entry [ comm "101:1" ];
          ];
      ];
    as_path_lists = [];
  }

let test_guard_prefix_list_deny_carveout () =
  let l = List.hd (List.tl env.Eval.prefix_lists) in
  let s = Guard.compile_prefix_list l in
  check bool_t "denied exact absent" false (Prefix_space.mem (pfx "10.1.0.0/16") s);
  check bool_t "longer than denied present" true (Prefix_space.mem (pfx "10.1.2.0/24") s);
  check bool_t "others present" true (Prefix_space.mem (pfx "10.2.0.0/16") s)

let test_guard_community_list_compilation () =
  let cl =
    List.find (fun (l : Community_list.t) -> l.name = "cany") env.Eval.community_lists
  in
  let cubes = Guard.compile_community_list cl in
  let sat set = List.exists (Comm_constr.satisfies set) cubes in
  check bool_t "100:1 matches" true (sat (Community.Set.singleton (comm "100:1")));
  check bool_t "101:1 matches" true (sat (Community.Set.singleton (comm "101:1")));
  check bool_t "empty does not" false (sat Community.Set.empty)

(* Random route maps over the pools above. *)

let match_gen =
  QCheck2.Gen.oneof
    [
      QCheck2.Gen.oneofl
        [
          Route_map.Match_prefix_list "p24";
          Route_map.Match_prefix_list "mixed";
          Route_map.Match_community_list "c0";
          Route_map.Match_community_list "c1";
          Route_map.Match_community_list "cboth";
          Route_map.Match_community_list "cany";
          Route_map.Match_source_protocol Route.Bgp;
          Route_map.Match_source_protocol Route.Ospf;
          Route_map.Match_med 5;
          Route_map.Match_med 10;
        ];
    ]

let set_gen =
  QCheck2.Gen.oneofl
    [
      Route_map.Set_med 50;
      Route_map.Set_local_pref 200;
      Route_map.Set_community { communities = [ comm "102:1" ]; additive = true };
      Route_map.Set_community { communities = [ comm "102:1" ]; additive = false };
    ]

let entry_gen seq =
  let open QCheck2.Gen in
  bool >>= fun permit ->
  list_size (int_bound 2) match_gen >>= fun matches ->
  list_size (int_bound 1) set_gen >>= fun sets ->
  return
    (Route_map.entry
       ~action:(if permit then Action.Permit else Action.Deny)
       ~matches ~sets seq)

let map_gen =
  let open QCheck2.Gen in
  int_range 1 4 >>= fun n ->
  let rec build i acc =
    if i > n then return (Route_map.make "m" (List.rev acc))
    else entry_gen (i * 10) >>= fun e -> build (i + 1) (e :: acc)
  in
  build 1 []

let route_gen =
  let open QCheck2.Gen in
  oneofl
    [
      "1.2.3.0/24"; "1.2.3.0/25"; "1.2.3.4/32"; "1.2.0.0/16"; "10.0.0.0/8";
      "10.1.0.0/16"; "10.1.2.0/24"; "10.2.0.0/16"; "9.9.9.0/24";
    ]
  >>= fun p ->
  oneofl
    [ []; [ comm "100:1" ]; [ comm "101:1" ]; [ comm "100:1"; comm "101:1" ]; comms_pool ]
  >>= fun cs ->
  oneofl [ Route.Bgp; Route.Ospf; Route.Connected ] >>= fun source ->
  oneofl [ 0; 5; 10 ] >>= fun med ->
  return (Route.make ~communities:(Community.Set.of_list cs) ~med ~source (pfx p))

let prop_guard_agrees_with_eval =
  QCheck2.Test.make ~name:"entry guard pred agrees with concrete matching" ~count:600
    QCheck2.Gen.(pair (entry_gen 10) route_gen) (fun (e, r) ->
      let guard = Guard.compile_entry_guard env e in
      Pred.satisfies ~env r guard = Eval.entry_matches env e r)

let prop_transfer_partition =
  QCheck2.Test.make ~name:"transfer regions partition the space" ~count:300
    QCheck2.Gen.(pair map_gen route_gen) (fun (m, r) ->
      let regions = Transfer.compile env m in
      let hits =
        List.filter (fun (rg : Transfer.region) -> Pred.satisfies ~env r rg.space) regions
      in
      List.length hits = 1)

let prop_transfer_action_agrees =
  QCheck2.Test.make ~name:"transfer action agrees with eval" ~count:600
    QCheck2.Gen.(pair map_gen route_gen) (fun (m, r) ->
      let regions = Transfer.compile env m in
      match
        List.find_opt (fun (rg : Transfer.region) -> Pred.satisfies ~env r rg.space) regions
      with
      | None -> false
      | Some rg -> rg.action = Eval.verdict_action (Eval.eval env m r))

let prop_diff_empty_iff_same_map =
  QCheck2.Test.make ~name:"policy diff of a map with itself is empty" ~count:100 map_gen
    (fun m -> Policy_diff.compare_maps ~env_a:env ~env_b:env m m = [])

let prop_diff_witnesses_disagree =
  QCheck2.Test.make ~name:"policy diff examples actually disagree" ~count:150
    QCheck2.Gen.(pair map_gen map_gen) (fun (m1, m2) ->
      let diffs = Policy_diff.compare_maps ~env_a:env ~env_b:env m1 m2 in
      List.for_all
        (fun (d : Policy_diff.difference) ->
          match d.example with
          | None -> true
          | Some r -> (
              let v1 = Eval.eval env m1 r and v2 = Eval.eval env m2 r in
              match (v1, v2) with
              | Eval.Denied, Eval.Denied -> false
              | Eval.Permitted a, Eval.Permitted b -> not (Route.equal a b)
              | _ -> true))
        diffs)

let prop_diff_detects_action_flip =
  QCheck2.Test.make ~name:"flipping an action is always detected" ~count:150 map_gen
    (fun m ->
      match m.Route_map.entries with
      | [] -> true
      | e :: rest ->
          let flipped =
            Route_map.make m.Route_map.name
              ({ e with Route_map.action = Action.flip e.Route_map.action } :: rest)
          in
          let guard = Guard.compile_entry_guard env e in
          (* Only meaningful when the first entry matches something. *)
          Pred.is_empty guard
          || Policy_diff.compare_maps ~env_a:env ~env_b:env m flipped <> [])

(* ------------------------------------------------------------------ *)
(* Policy_diff targeted cases                                          *)
(* ------------------------------------------------------------------ *)

let test_diff_med_difference () =
  let m1 =
    Route_map.make "to_provider" [ Route_map.entry ~sets:[ Route_map.Set_med 50 ] 10 ]
  in
  let m2 =
    Route_map.make "to_provider" [ Route_map.entry ~sets:[ Route_map.Set_med 60 ] 10 ]
  in
  match Policy_diff.compare_maps ~env_a:env ~env_b:env m1 m2 with
  | [ d ] -> (
      match d.Policy_diff.kind with
      | Policy_diff.Effect_mismatch [ ("MED", "50", "60") ] -> ()
      | _ -> Alcotest.fail "expected MED effect mismatch")
  | ds -> Alcotest.failf "expected one difference, got %d" (List.length ds)

let test_diff_and_or_counterexample () =
  (* The paper's AND/OR bug: deny needs any community, GPT-4 wrote all. *)
  let and_map =
    Route_map.make "FILTER"
      [
        Route_map.entry ~action:Action.Deny
          ~matches:
            [ Route_map.Match_community_list "c0"; Route_map.Match_community_list "c1" ]
          10;
        Route_map.entry 20;
      ]
  in
  let or_map =
    Route_map.make "FILTER"
      [
        Route_map.entry ~action:Action.Deny
          ~matches:[ Route_map.Match_community_list "c0" ] 10;
        Route_map.entry ~action:Action.Deny
          ~matches:[ Route_map.Match_community_list "c1" ] 20;
        Route_map.entry 30;
      ]
  in
  let diffs = Policy_diff.compare_maps ~env_a:env ~env_b:env and_map or_map in
  check bool_t "difference found" true (diffs <> []);
  (* Some witness should carry exactly one of the two communities. *)
  check bool_t "witness with single community" true
    (List.exists
       (fun (d : Policy_diff.difference) ->
         match d.example with
         | Some r ->
             let has c = Route.has_community r (comm c) in
             (has "100:1" && not (has "101:1")) || (has "101:1" && not (has "100:1"))
         | None -> false)
       diffs)

let test_diff_equivalent_maps () =
  (* Same semantics, different sequence numbers: no differences. *)
  let m1 =
    Route_map.make "m"
      [ Route_map.entry ~matches:[ Route_map.Match_prefix_list "p24" ] 10 ]
  in
  let m2 =
    Route_map.make "m"
      [ Route_map.entry ~matches:[ Route_map.Match_prefix_list "p24" ] 999 ]
  in
  check bool_t "equivalent" true (Policy_diff.equivalent ~env_a:env ~env_b:env m1 m2)

let test_diff_redistribution_leak () =
  (* Juniper export policy lacking "from bgp" leaks OSPF routes. *)
  let with_from_bgp =
    Route_map.make "export"
      [
        Route_map.entry ~matches:[ Route_map.Match_source_protocol Route.Bgp ] 10;
      ]
  in
  let without =
    Route_map.make "export" [ Route_map.entry 10 ]
  in
  let diffs = Policy_diff.compare_maps ~env_a:env ~env_b:env with_from_bgp without in
  check bool_t "leak detected" true
    (List.exists
       (fun (d : Policy_diff.difference) ->
         match d.example with
         | Some r -> r.Route.source <> Route.Bgp
         | None -> false)
       diffs)

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_space_union;
      prop_space_inter;
      prop_space_diff;
      prop_space_sample_sound;
      prop_space_diff_then_union_restores;
      prop_guard_agrees_with_eval;
      prop_transfer_partition;
      prop_transfer_action_agrees;
      prop_diff_empty_iff_same_map;
      prop_diff_witnesses_disagree;
      prop_diff_detects_action_flip;
    ]

let () =
  Alcotest.run "symbolic"
    [
      ( "len-set",
        [
          Alcotest.test_case "basics" `Quick test_len_set_basics;
          Alcotest.test_case "algebra" `Quick test_len_set_algebra;
        ] );
      ( "prefix-space",
        [
          Alcotest.test_case "exact membership" `Quick test_space_exact_membership;
          Alcotest.test_case "orlonger" `Quick test_space_orlonger;
          Alcotest.test_case "diff peels subtrees" `Quick test_space_diff_peels;
          Alcotest.test_case "diff on lengths" `Quick test_space_diff_lengths_only;
          Alcotest.test_case "sampling" `Quick test_space_sample;
          Alcotest.test_case "full minus full" `Quick test_space_full_minus_full_empty;
        ] );
      ( "attribute-constraints",
        [
          Alcotest.test_case "int constraints" `Quick test_int_constr;
          Alcotest.test_case "community cubes" `Quick test_comm_constr;
        ] );
      ( "guards",
        [
          Alcotest.test_case "prefix list carve-out" `Quick
            test_guard_prefix_list_deny_carveout;
          Alcotest.test_case "community list compilation" `Quick
            test_guard_community_list_compilation;
        ] );
      ( "policy-diff",
        [
          Alcotest.test_case "med difference" `Quick test_diff_med_difference;
          Alcotest.test_case "AND/OR counterexample" `Quick test_diff_and_or_counterexample;
          Alcotest.test_case "equivalent maps" `Quick test_diff_equivalent_maps;
          Alcotest.test_case "redistribution leak" `Quick test_diff_redistribution_leak;
        ] );
      ("properties", props);
    ]
