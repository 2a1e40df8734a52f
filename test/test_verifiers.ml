(* Tests for the verifier suite: Batfish-equivalent (parse check, search
   route policies, BGP simulation), the topology verifier, and the
   Campion-equivalent differ. *)

open Netcore
open Policy

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int
let pfx = Prefix.of_string_exn
let ip = Ipv4.of_string_exn
let comm s = Option.get (Community.of_string s)

let contains = Netcore.Substring.contains

(* ------------------------------------------------------------------ *)
(* Parse check                                                         *)
(* ------------------------------------------------------------------ *)

let test_parse_check_dialects () =
  check bool_t "cisco ok" true
    (Batfish.Parse_check.syntax_ok Batfish.Parse_check.Cisco_ios Cisco.Samples.border_router);
  let junos =
    Juniper.Printer.print
      (Juniper.Translate.of_cisco_ir (fst (Cisco.Parser.parse Cisco.Samples.border_router)))
  in
  check bool_t "junos ok" true (Batfish.Parse_check.syntax_ok Batfish.Parse_check.Junos junos);
  check bool_t "garbage cisco" false
    (Batfish.Parse_check.syntax_ok Batfish.Parse_check.Cisco_ios "utter nonsense here\n")

let test_parse_check_lint_included () =
  let text = "router bgp 1\n neighbor 1.0.0.2 remote-as 2\n neighbor 1.0.0.2 route-map nope in\n" in
  let _, diags = Batfish.Parse_check.check Batfish.Parse_check.Cisco_ios text in
  check bool_t "lint appended" true
    (List.exists (fun d -> contains ~sub:"undefined route-map" (Diag.to_string d)) diags)

(* ------------------------------------------------------------------ *)
(* Search route policies                                               *)
(* ------------------------------------------------------------------ *)

let config_with maps lists =
  { (Config_ir.empty "r") with Config_ir.route_maps = maps; community_lists = lists }

let cl name c = Community_list.make name [ Community_list.entry [ comm c ] ]

let space_with_community c =
  Symbolic.Pred.of_cube
    (Symbolic.Cube.make ~comms:(Symbolic.Comm_constr.require (comm c)) ())

let test_srp_holds () =
  let map =
    Route_map.make "FILTER"
      [
        Route_map.entry ~action:Action.Deny
          ~matches:[ Route_map.Match_community_list "cl1" ] 10;
        Route_map.entry 20;
      ]
  in
  let cfg = config_with [ map ] [ cl "cl1" "101:1" ] in
  let spec =
    {
      Batfish.Search_route_policies.policy = "FILTER";
      space = space_with_community "101:1";
      requirement = Batfish.Search_route_policies.Denies;
      description = "routes with 101:1";
    }
  in
  check bool_t "holds" true (Batfish.Search_route_policies.check cfg spec = Batfish.Search_route_policies.Holds)

let test_srp_counterexample () =
  (* AND semantics bug: both communities required to deny. *)
  let map =
    Route_map.make "FILTER"
      [
        Route_map.entry ~action:Action.Deny
          ~matches:
            [
              Route_map.Match_community_list "cl1";
              Route_map.Match_community_list "cl2";
            ]
          10;
        Route_map.entry 20;
      ]
  in
  let cfg = config_with [ map ] [ cl "cl1" "101:1"; cl "cl2" "102:1" ] in
  let spec =
    {
      Batfish.Search_route_policies.policy = "FILTER";
      space = space_with_community "101:1";
      requirement = Batfish.Search_route_policies.Denies;
      description = "routes with 101:1";
    }
  in
  match Batfish.Search_route_policies.check cfg spec with
  | Batfish.Search_route_policies.Violated v ->
      check bool_t "example has 101:1" true
        (Community.Set.mem (comm "101:1")
           v.Batfish.Search_route_policies.example.Route.communities);
      check bool_t "example permitted" true
        (v.Batfish.Search_route_policies.got_action = Action.Permit)
  | _ -> Alcotest.fail "expected violation"

let test_srp_adds_community () =
  let good =
    Route_map.make "TAG"
      [
        Route_map.entry
          ~sets:[ Route_map.Set_community { communities = [ comm "100:1" ]; additive = true } ]
          10;
      ]
  in
  let replacing =
    Route_map.make "TAG"
      [
        Route_map.entry
          ~sets:[ Route_map.Set_community { communities = [ comm "100:1" ]; additive = false } ]
          10;
      ]
  in
  let spec =
    {
      Batfish.Search_route_policies.policy = "TAG";
      space = Symbolic.Pred.full;
      requirement = Batfish.Search_route_policies.Adds_community (comm "100:1");
      description = "everything";
    }
  in
  check bool_t "additive holds" true
    (Batfish.Search_route_policies.check (config_with [ good ] []) spec
    = Batfish.Search_route_policies.Holds);
  match Batfish.Search_route_policies.check (config_with [ replacing ] []) spec with
  | Batfish.Search_route_policies.Violated v ->
      check bool_t "flags replacement" true v.Batfish.Search_route_policies.replaced_communities
  | _ -> Alcotest.fail "expected violation for replacing set"

let test_srp_policy_missing () =
  let spec =
    {
      Batfish.Search_route_policies.policy = "GHOST";
      space = Symbolic.Pred.full;
      requirement = Batfish.Search_route_policies.Permits;
      description = "";
    }
  in
  check bool_t "missing" true
    (Batfish.Search_route_policies.check (Config_ir.empty "r") spec
    = Batfish.Search_route_policies.Policy_missing)

(* Alcotest's checks are not domain-safe, so the walks below that run on
   pool domains fail with a plain exception that the pool re-raises. *)
let expect label ok = if not ok then failwith label

(* Those walks run from two pool domains at once, so both race on the same
   keys of one process-wide memo. [twice f] runs [f 0] and [f 1] that way. *)
let pool = Exec.Pool.create ~domains:2 ()
let twice f = ignore (Exec.Pool.map pool f [ 0; 1 ] : unit list)

(* Differential: [check_all] against one-shot [check], and every witness
   against concrete evaluation, on the hub of a star — the oracle config
   and fault-injected drafts from the simulated LLM. *)

let srp = Alcotest.testable (fun ppf _ -> Format.pp_print_string ppf "<outcome>") ( = )

(* Whether the witness lies in the spec's space and, evaluated concretely,
   gets the reported action and breaks the spec's requirement. A replacing
   [set community] is invisible on a witness that carries no community, so
   for [replaced_communities] the same witness carrying one extra
   community, still inside the spec's space, may show the loss instead. *)
let witness_breaks env map (v : Batfish.Search_route_policies.violation) =
  let module S = Batfish.Search_route_policies in
  let spec = v.S.spec in
  let breaks route =
    match (spec.S.requirement, Eval.eval env map route) with
    | S.Permits, Eval.Denied -> true
    | S.Denies, Eval.Permitted _ -> true
    | (S.Adds_community _ | S.Prepends _), Eval.Denied -> true
    | S.Adds_community c, Eval.Permitted out ->
        (not (Community.Set.mem c out.Route.communities))
        || not (Community.Set.subset route.Route.communities out.Route.communities)
    | S.Prepends asns, Eval.Permitted out ->
        out.Route.as_path <> List.fold_right As_path.prepend asns route.Route.as_path
    | (S.Permits | S.Denies), _ -> false
  in
  let example = v.S.example in
  let probe d =
    Route.with_communities example (Community.Set.add d example.Route.communities)
  in
  Symbolic.Pred.satisfies ~env example spec.S.space
  && (match Eval.eval env map example with
     | Eval.Permitted _ -> Action.Permit
     | Eval.Denied -> Action.Deny)
     = v.S.got_action
  && (breaks example
     || v.S.replaced_communities
        && List.exists
             (fun d ->
               let r = probe d in
               Symbolic.Pred.satisfies ~env r spec.S.space && breaks r)
             [ comm "65000:999"; comm "64512:7" ])

let test_srp_differential () =
  List.iter
    (fun routers ->
      let star = Star.make ~routers in
      let hub =
        List.find
          (fun (t : Cosynth.Modularizer.router_task) ->
            t.Cosynth.Modularizer.router = star.Star.hub)
          (Cosynth.Modularizer.plan star)
      in
      let specs = hub.Cosynth.Modularizer.specs in
      let correct = hub.Cosynth.Modularizer.correct in
      (* Each conversation's drafts in order, each answering an automated
         prompt about the first live fault of the one before. *)
      let drafts =
        List.concat
          (List.init 20 (fun i ->
               let chat =
                 Llmsim.Chat.start ~seed:((routers * 1000) + i) Llmsim.Fault.Cisco_cfg ~correct
               in
               let rec go n acc =
                 let text = Llmsim.Chat.draft chat in
                 let acc = (text, fst (Cisco.Parser.parse text)) :: acc in
                 match Llmsim.Chat.live_faults chat with
                 | f :: _ when n > 1 ->
                     Llmsim.Chat.respond chat
                       { Llmsim.Chat.text = ""; refs = [ f ]; strength = Auto };
                     go (n - 1) acc
                 | _ -> List.rev acc
               in
               go 3 []))
      in
      let texts = (Cisco.Printer.print correct, correct) :: drafts in
      (* Both domains ask the process-wide tables about every draft, in
         opposite orders, from cold; then one pass asks them warm. The
         per-map table is handed the parsed draft, and each domain's suite
         its text, as a loop hands it. *)
      let shared label suite (text, cfg) =
        expect (label ^ ": the shared table = check_all")
          (Exec.Memo.route_policies cfg specs = Batfish.Search_route_policies.check_all cfg specs);
        expect (label ^ ": the suite's draft table = check_all of the parse")
          (Resilience.Verifier.oracle suite.Resilience.Suite.route_policies (text, specs)
          = Batfish.Search_route_policies.check_all (fst (Cisco.Parser.parse text)) specs)
      in
      let suite () =
        Resilience.Suite.make (Resilience.Runtime.create Resilience.Runtime.default_config)
      in
      Exec.Memo.reset ();
      twice (fun d ->
          let suite = suite () in
          List.iteri
            (fun i t ->
              shared (Printf.sprintf "star %d, domain %d, draft %d" routers d i) suite t)
            (if d = 0 then texts else List.rev texts));
      let suite = suite () in
      List.iteri
        (fun i t -> shared (Printf.sprintf "star %d, warm, draft %d" routers i) suite t)
        texts;
      let violated = ref 0 in
      List.iteri
        (fun i (text, cfg) ->
          let name = Printf.sprintf "star %d, config %d" routers i in
          let all = Batfish.Search_route_policies.check_all cfg specs in
          check (Alcotest.list srp)
            (name ^ ": check_all = check per spec")
            (List.map (fun s -> Batfish.Search_route_policies.check cfg s) specs)
            (List.map snd all);
          check bool_t (name ^ ": the suite's oracle on the draft text = check_all") true
            (Resilience.Verifier.oracle suite.Resilience.Suite.route_policies (text, specs) = all);
          check bool_t (name ^ ": outcomes pair each spec in order") true
            (List.map fst all = specs);
          let env = Eval.env_of_config cfg in
          List.iter
            (fun (spec, outcome) ->
              match outcome with
              | Batfish.Search_route_policies.Violated v ->
                  incr violated;
                  let policy = spec.Batfish.Search_route_policies.policy in
                  let map = Option.get (Config_ir.find_route_map cfg policy) in
                  check bool_t
                    (Printf.sprintf "%s: witness for %s breaks it concretely" name policy)
                    true (witness_breaks env map v)
              | Batfish.Search_route_policies.Holds
              | Batfish.Search_route_policies.Policy_missing ->
                  ())
            all;
          if i = 0 then
            check bool_t (name ^ ": the oracle holds") true
              (List.for_all (fun (_, o) -> o = Batfish.Search_route_policies.Holds) all))
        texts;
      check bool_t (Printf.sprintf "star %d: some draft is violated" routers) true
        (!violated > 0))
    [ 3; 7; 15 ]

(* ------------------------------------------------------------------ *)
(* The verdict memo                                                    *)
(* ------------------------------------------------------------------ *)

module Srp = Batfish.Search_route_policies

(* The verdict and draft tables, summed; a test that asks only one of them
   reads its counters' moves. *)
let verdict_stats () = Netcore.Memo_table.stats "verdict_memo"

(* The process-wide verdict table's answer, checked against the uncached
   reference, witnesses included. *)
let memoised label cfg specs =
  let got = Exec.Memo.route_policies cfg specs in
  check (Alcotest.list srp) (label ^ ": memo = check_all") (List.map snd (Srp.check_all cfg specs))
    (List.map snd got);
  got

let config_of_env maps (env : Eval.env) =
  {
    (Config_ir.empty "r") with
    Config_ir.route_maps = maps;
    prefix_lists = env.Eval.prefix_lists;
    community_lists = env.Eval.community_lists;
    as_path_lists = env.Eval.as_path_lists;
  }

(* Every edit changes the verdict of a map that names the edited list, so a
   key that missed that list would hand back a stale verdict. The compiler
   reads only whether an AS-path list is defined, so that edit defines one;
   the third spec, outside the prefix list and without 100:1, sees it. *)
let test_verdict_key_lists () =
  Exec.Memo.reset ();
  let m =
    Route_map.make "m"
      [
        Route_map.entry ~action:Action.Deny ~matches:[ Route_map.Match_prefix_list "pl" ] 10;
        Route_map.entry ~action:Action.Deny ~matches:[ Route_map.Match_community_list "cl" ] 20;
        Route_map.entry ~action:Action.Deny ~matches:[ Route_map.Match_as_path "ap" ] 30;
        Route_map.entry 40;
      ]
  in
  let pl range = Prefix_list.make "pl" [ Prefix_list.entry 5 range ] in
  let ap = As_path_list.make "ap" [ As_path_list.entry "^65001_" ] in
  let outside =
    Symbolic.Cube.make
      ~prefixes:(Symbolic.Prefix_space.of_range (Prefix_range.orlonger (pfx "192.168.0.0/16")))
      ~comms:(Symbolic.Comm_constr.forbid (comm "100:1"))
      ()
  in
  let spec space requirement description =
    { Srp.policy = "m"; space; requirement; description }
  in
  let specs =
    [
      spec Symbolic.Pred.full Srp.Permits "every route";
      spec (space_with_community "100:1") Srp.Denies "routes carrying 100:1";
      spec (Symbolic.Pred.of_cube outside) Srp.Permits "routes in 192.168/16 without 100:1";
    ]
  in
  let base =
    {
      Eval.prefix_lists = [ pl (Prefix_range.orlonger (pfx "10.0.0.0/8")) ];
      community_lists = [ cl "cl" "100:1" ];
      as_path_lists = [];
    }
  in
  let ask label env = memoised label (config_of_env [ m ] env) specs in
  let at_base = ask "base" base in
  let edits =
    [
      ( "prefix list",
        { base with Eval.prefix_lists = [ pl (Prefix_range.exact (pfx "10.1.0.0/16")) ] } );
      ("community list", { base with Eval.community_lists = [ cl "cl" "101:1" ] });
      ("as-path list", { base with Eval.as_path_lists = [ ap ] });
      ( "duplicate name",
        {
          base with
          Eval.prefix_lists = pl (Prefix_range.exact (pfx "9.9.9.0/24")) :: base.Eval.prefix_lists;
        } );
    ]
  in
  List.iter
    (fun (label, env) ->
      check bool_t (label ^ ": the edit changes the verdict") false (ask label env = at_base))
    edits;
  let unreferenced =
    {
      Eval.prefix_lists = base.Eval.prefix_lists @ [ Prefix_list.make "other" [] ];
      community_lists = base.Eval.community_lists @ [ cl "other" "7:7" ];
      as_path_lists = [ As_path_list.make "other" [ As_path_list.entry "_1_" ] ];
    }
  in
  let before = verdict_stats () in
  check bool_t "editing an unreferenced list: same verdict" true
    (ask "unreferenced" unreferenced = at_base);
  let after = verdict_stats () in
  check int_t "editing an unreferenced list is a hit" (before.Exec.Memo.hits + 1)
    after.Exec.Memo.hits;
  check int_t "and no miss" before.Exec.Memo.misses after.Exec.Memo.misses;
  (* The specs are part of the key too. *)
  ignore (memoised "the last two specs" (config_of_env [ m ] base) (List.tl specs))

(* A spec's space may name an AS-path list its map does not, and witness
   sampling looks that list up by name, so the key must keep it: sliced on
   the map alone, the second ask would return the first witness. *)
let test_verdict_key_spec_lists () =
  Exec.Memo.reset ();
  let spec =
    {
      Srp.policy = "m";
      space =
        Symbolic.Pred.of_cube
          (Symbolic.Cube.make ~aspath:(Symbolic.Aspath_constr.require "via") ());
      requirement = Srp.Denies;
      description = "routes through the via list";
    }
  in
  let ask regex =
    memoised ("via " ^ regex)
      (config_of_env [ Route_map.permit_all "m" ]
         {
           Eval.prefix_lists = [];
           community_lists = [];
           as_path_lists = [ As_path_list.make "via" [ As_path_list.entry regex ] ];
         })
      [ spec ]
  in
  let witness = function
    | [ (_, Srp.Violated v) ] -> Some (Route.to_string v.Srp.example)
    | _ -> None
  in
  let a = witness (ask "_65001_") and b = witness (ask "^100_") in
  check bool_t "both violated" true (Option.is_some a && Option.is_some b);
  check bool_t "the witness follows the spec's list" true (a <> b)

(* The key hash must read past the map's name: on the 15-router hub each
   egress map has 14 stanzas, and flipping the last one moves the hash. *)
let test_verdict_key_hash () =
  let star = Star.make ~routers:15 in
  let hub = List.hd (Cosynth.Modularizer.plan star) in
  let cfg = hub.Cosynth.Modularizer.correct in
  let env = Eval.env_of_config cfg in
  List.iter
    (fun spoke ->
      let name = Cosynth.Modularizer.egress_map_name spoke in
      let m = Option.get (Config_ir.find_route_map cfg name) in
      check int_t (name ^ " has 14 stanzas") 14 (List.length m.Route_map.entries);
      let edited =
        match List.rev m.Route_map.entries with
        | [] -> Alcotest.failf "map %s has no entries" name
        | last :: rest ->
            Route_map.make name (List.rev ({ last with Route_map.action = Action.Deny } :: rest))
      in
      let specs = List.filter (fun (s : Srp.spec) -> s.Srp.policy = name) hub.Cosynth.Modularizer.specs in
      let hash map =
        Exec.Memo.verdict_key_hash
          { Srp.map; env = Symbolic.Transfer.env_slice [ map ] env; specs }
      in
      check bool_t (name ^ ": the last stanza moves the hash") true (hash m <> hash edited))
    star.Star.spokes

(* The draft table, checked against the uncached reference on the parse of
   the text. *)
let by_draft label text specs =
  check (Alcotest.list srp)
    (label ^ ": draft memo = check_all of the parse")
    (List.map snd (Srp.check_all (fst (Cisco.Parser.parse text)) specs))
    (List.map snd (Exec.Memo.route_policies_of_draft text specs))

(* The key is the text and the specs, whole: the same text under other
   specs, or a one-byte edit of it, misses and gets its own answer. *)
let test_draft_key () =
  Exec.Memo.reset ();
  let hub = List.hd (Cosynth.Modularizer.plan (Star.make ~routers:7)) in
  let specs = hub.Cosynth.Modularizer.specs in
  let text = Cisco.Printer.print hub.Cosynth.Modularizer.correct in
  (* 1 when the draft table missed, 0 when it hit. A hit is one lookup and
     touches nothing else; a miss counts one miss there and then asks the
     verdict table, which shares its name, per map. *)
  let asks label text specs =
    let before = verdict_stats () in
    by_draft label text specs;
    let after = verdict_stats () in
    match
      ( after.Exec.Memo.hits - before.Exec.Memo.hits,
        after.Exec.Memo.misses - before.Exec.Memo.misses )
    with
    | 1, 0 -> 0
    | _, misses when misses > 0 -> 1
    | hits, misses -> Alcotest.failf "%s: %d hits and %d misses" label hits misses
  in
  check int_t "first ask misses" 1 (asks "first" text specs);
  check int_t "same text and specs hit" 0 (asks "again" text specs);
  (* Every spec holds on this draft, so a key that ignored the specs would
     hand back one outcome per hub spec for the egress specs alone. *)
  let egress = List.filter (fun (s : Srp.spec) -> s.Srp.requirement = Srp.Denies) specs in
  check bool_t "fewer specs" true (List.length egress < List.length specs);
  check int_t "other specs miss" 1 (asks "other specs" text egress);
  (* [100:2] for [100:1] in the first community list tags the first ISP's
     routes with a community no egress map drops. *)
  let edited =
    let rec find i = if String.sub text i 6 = " 100:1" then i else find (i + 1) in
    let at = find 0 + 5 in
    String.mapi (fun j c -> if j = at then '2' else c) text
  in
  check bool_t "one byte differs" true
    (String.length edited = String.length text
    && List.length
         (List.filter Fun.id (List.init (String.length text) (fun j -> text.[j] <> edited.[j])))
       = 1);
  check int_t "a one-byte edit misses" 1 (asks "one-byte edit" edited specs);
  check bool_t "and its answer differs" false
    (Exec.Memo.route_policies_of_draft edited specs = Exec.Memo.route_policies_of_draft text specs)

(* Loops over one star share its plan, so verdict keys built from its specs
   compare them by address; a reset drops the plan. *)
let test_plan_shared () =
  let plan () = Cosynth.Modularizer.plan (Star.make ~routers:7) in
  let a = plan () in
  check bool_t "a second star of one size gets the same plan" true (plan () == a);
  Exec.Memo.reset ();
  let b = plan () in
  check bool_t "reset drops it" false (b == a);
  check bool_t "the rebuilt plan is equal" true (b = a)

(* ------------------------------------------------------------------ *)
(* BGP simulation                                                      *)
(* ------------------------------------------------------------------ *)

let star5 = Star.make ~routers:5
let tasks5 = Cosynth.Modularizer.plan star5
let configs5 = List.map (fun (t : Cosynth.Modularizer.router_task) -> (t.router, t.correct)) tasks5
let net5 = Cosynth.Modularizer.compose star5 configs5
let ribs5 = Batfish.Bgp_sim.run net5

let test_sim_converges () =
  check int_t "all routers have ribs" 5 (List.length (Batfish.Bgp_sim.routers ribs5))

let test_sim_customer_reachable_everywhere () =
  List.iter
    (fun s ->
      check bool_t (s ^ " reaches customer") true
        (Batfish.Bgp_sim.reachable ribs5 ~router:s (pfx "10.0.0.0/24")))
    star5.Star.spokes

let test_sim_no_transit () =
  (* R2 must not see R3's ISP network and vice versa. *)
  check bool_t "R2 lacks 10.3.0.0/24" false
    (Batfish.Bgp_sim.reachable ribs5 ~router:"R2" (pfx "10.3.0.0/24"));
  check bool_t "R3 lacks 10.2.0.0/24" false
    (Batfish.Bgp_sim.reachable ribs5 ~router:"R3" (pfx "10.2.0.0/24"));
  check bool_t "hub sees all" true
    (Batfish.Bgp_sim.reachable ribs5 ~router:"R1" (pfx "10.4.0.0/24"))

let test_sim_communities_tagged () =
  (* The hub's copy of an ISP route carries that ISP's community. *)
  match Batfish.Bgp_sim.lookup ribs5 ~router:"R1" (pfx "10.2.0.0/24") with
  | Some e ->
      check bool_t "tagged with 100:1" true
        (Community.Set.mem (comm "100:1") e.Batfish.Bgp_sim.route.Route.communities)
  | None -> Alcotest.fail "hub must know ISP 2's network"

let test_sim_as_path_loop_prevention () =
  (* Routes learned by a spoke never contain its own AS. *)
  List.iter
    (fun (e : Batfish.Bgp_sim.rib_entry) ->
      check bool_t "no own AS" false (As_path.mem 2 e.Batfish.Bgp_sim.route.Route.as_path))
    (Batfish.Bgp_sim.rib ribs5 "R2")

let test_sim_without_filters_transits () =
  (* Strip the hub's export policies: ISP routes leak to other ISPs. *)
  let configs =
    List.map
      (fun (name, (c : Config_ir.t)) ->
        if name = "R1" then
          match c.Config_ir.bgp with
          | Some b ->
              let neighbors =
                List.map
                  (fun (n : Config_ir.neighbor) -> { n with Config_ir.export_policy = None })
                  b.Config_ir.neighbors
              in
              (name, { c with Config_ir.bgp = Some { b with Config_ir.neighbors } })
          | None -> (name, c)
        else (name, c))
      configs5
  in
  let ribs = Batfish.Bgp_sim.run (Cosynth.Modularizer.compose star5 configs) in
  check bool_t "R2 now sees 10.3.0.0/24" true
    (Batfish.Bgp_sim.reachable ribs ~router:"R2" (pfx "10.3.0.0/24"));
  let ok, violations = Cosynth.Modularizer.no_transit_holds star5 configs in
  check bool_t "global check fails" false ok;
  check bool_t "violation mentions transit" true
    (List.exists (contains ~sub:"transit") violations)

let test_sim_missing_config_is_isolated () =
  let configs = List.remove_assoc "R3" configs5 in
  let ribs = Batfish.Bgp_sim.run (Cosynth.Modularizer.compose star5 configs) in
  check bool_t "R3 has empty rib" true (Batfish.Bgp_sim.rib ribs "R3" = []);
  check bool_t "others still work" true
    (Batfish.Bgp_sim.reachable ribs ~router:"R2" (pfx "10.0.0.0/24"))

(* ------------------------------------------------------------------ *)
(* Topology verifier                                                   *)
(* ------------------------------------------------------------------ *)

let hub_correct = List.assoc "R1" configs5
let spoke_correct = List.assoc "R2" configs5

let test_topo_clean () =
  check int_t "hub clean" 0
    (List.length (Topoverify.Verifier.check star5.Star.topology ~router:"R1" hub_correct));
  check int_t "spoke clean" 0
    (List.length (Topoverify.Verifier.check star5.Star.topology ~router:"R2" spoke_correct))

let findings_for config router =
  Topoverify.Verifier.check star5.Star.topology ~router config

let test_topo_wrong_local_as () =
  let bad =
    match spoke_correct.Config_ir.bgp with
    | Some b -> { spoke_correct with Config_ir.bgp = Some { b with Config_ir.asn = 9 } }
    | None -> assert false
  in
  let fs = findings_for bad "R2" in
  check bool_t "local as flagged" true
    (List.exists
       (fun (f : Topoverify.Verifier.finding) ->
         f.Topoverify.Verifier.kind = Topoverify.Verifier.Local_as_mismatch
         && contains ~sub:"Expected 2, found 9" f.Topoverify.Verifier.message)
       fs)

let test_topo_missing_neighbor () =
  let bad =
    match hub_correct.Config_ir.bgp with
    | Some b ->
        {
          hub_correct with
          Config_ir.bgp =
            Some
              {
                b with
                Config_ir.neighbors =
                  List.filter
                    (fun (n : Config_ir.neighbor) ->
                      not (Ipv4.equal n.Config_ir.addr (ip "1.0.0.2")))
                    b.Config_ir.neighbors;
              };
        }
    | None -> assert false
  in
  let fs = findings_for bad "R1" in
  check bool_t "neighbor flagged" true
    (List.exists
       (fun (f : Topoverify.Verifier.finding) ->
         contains ~sub:"Neighbor with IP address 1.0.0.2 and AS 2 not declared"
           f.Topoverify.Verifier.message)
       fs)

let test_topo_incorrect_network () =
  let bad =
    match hub_correct.Config_ir.bgp with
    | Some b ->
        {
          hub_correct with
          Config_ir.bgp =
            Some { b with Config_ir.networks = b.Config_ir.networks @ [ pfx "7.0.0.0/24" ] };
        }
    | None -> assert false
  in
  let fs = findings_for bad "R1" in
  check bool_t "network flagged" true
    (List.exists
       (fun (f : Topoverify.Verifier.finding) ->
         contains ~sub:"7.0.0.0/24 is not directly connected to R1"
           f.Topoverify.Verifier.message)
       fs)

let test_topo_interface_address () =
  let bad =
    {
      spoke_correct with
      Config_ir.interfaces =
        List.map
          (fun (i : Config_ir.interface) ->
            match i.Config_ir.address with
            | Some (a, l) -> { i with Config_ir.address = Some (Ipv4.succ a, l) }
            | None -> i)
          spoke_correct.Config_ir.interfaces;
    }
  in
  let fs = findings_for bad "R2" in
  check bool_t "address flagged" true
    (List.exists
       (fun (f : Topoverify.Verifier.finding) ->
         f.Topoverify.Verifier.kind = Topoverify.Verifier.Interface_address_mismatch)
       fs)

let test_topo_mask_length_mismatch () =
  let bad =
    {
      spoke_correct with
      Config_ir.interfaces =
        List.map
          (fun (i : Config_ir.interface) ->
            match i.Config_ir.address with
            | Some (a, _) -> { i with Config_ir.address = Some (a, 30) }
            | None -> i)
          spoke_correct.Config_ir.interfaces;
    }
  in
  let fs = findings_for bad "R2" in
  check bool_t "mask flagged" true
    (List.exists
       (fun (f : Topoverify.Verifier.finding) ->
         contains ~sub:"mask length does not match" f.Topoverify.Verifier.message)
       fs)

let test_topo_missing_interface () =
  let bad = { spoke_correct with Config_ir.interfaces = [] } in
  let fs = findings_for bad "R2" in
  check bool_t "two missing interfaces" true
    (List.length
       (List.filter
          (fun (f : Topoverify.Verifier.finding) ->
            f.Topoverify.Verifier.kind = Topoverify.Verifier.Missing_interface)
          fs)
    = 2)

let test_topo_router_id_absent () =
  let bad =
    match spoke_correct.Config_ir.bgp with
    | Some b -> { spoke_correct with Config_ir.bgp = Some { b with Config_ir.router_id = None } }
    | None -> assert false
  in
  let fs = findings_for bad "R2" in
  check bool_t "absent router id flagged" true
    (List.exists
       (fun (f : Topoverify.Verifier.finding) ->
         contains ~sub:"Router ID is not configured" f.Topoverify.Verifier.message)
       fs)

let test_topo_no_bgp_process () =
  let bad = { spoke_correct with Config_ir.bgp = None } in
  let fs = findings_for bad "R2" in
  check bool_t "flagged" true
    (List.exists
       (fun (f : Topoverify.Verifier.finding) ->
         f.Topoverify.Verifier.kind = Topoverify.Verifier.No_bgp_process)
       fs)

let test_topo_from_json () =
  let json = Star.to_json star5 in
  match Topoverify.Verifier.check_from_json json ~router:"R2" spoke_correct with
  | Ok [] -> ()
  | Ok fs -> Alcotest.failf "unexpected findings: %d" (List.length fs)
  | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* Campion                                                             *)
(* ------------------------------------------------------------------ *)

let border_ir = fst (Cisco.Parser.parse Cisco.Samples.border_router)
let correct_translation = Juniper.Translate.of_cisco_ir border_ir

let reparse_junos ir =
  fst (Juniper.Parser.parse (Juniper.Printer.print ir))

let test_campion_clean_on_correct_translation () =
  let translation = reparse_junos correct_translation in
  let findings = Campion.Differ.compare ~original:border_ir ~translation in
  if findings <> [] then
    Alcotest.failf "unexpected findings:\n%s"
      (String.concat "\n" (List.map Campion.Differ.finding_to_string findings))

let with_fault cls target =
  let f = Llmsim.Fault.make cls target in
  let text = Llmsim.Fault.render Llmsim.Fault.Junos_cfg correct_translation [ f ] in
  fst (Juniper.Parser.parse text)

let test_campion_missing_policy () =
  let translation =
    with_fault Llmsim.Error_class.Missing_import_policy (Llmsim.Fault.Neighbor (ip "2.3.4.5"))
  in
  let findings = Campion.Differ.compare ~original:border_ir ~translation in
  check bool_t "structural missing import" true
    (List.exists
       (function
         | Campion.Differ.Structural
             (Campion.Differ.Missing_policy
               { neighbor; direction = Campion.Differ.Import; missing_in_translation = true })
           -> Ipv4.equal neighbor (ip "2.3.4.5")
         | _ -> false)
       findings)

let test_campion_cost_difference () =
  let translation =
    with_fault Llmsim.Error_class.Ospf_cost_wrong (Llmsim.Fault.Interface (Iface.loopback 0))
  in
  let findings = Campion.Differ.compare ~original:border_ir ~translation in
  check bool_t "cost diff 1 vs 0" true
    (List.exists
       (function
         | Campion.Differ.Attribute a ->
             a.Campion.Differ.attribute = "cost"
             && a.Campion.Differ.original_value = "1"
             && a.Campion.Differ.translated_value = "0"
         | _ -> false)
       findings)

let test_campion_med_difference () =
  let translation =
    with_fault Llmsim.Error_class.Wrong_med (Llmsim.Fault.Policy_entry ("to_provider", 10))
  in
  let findings = Campion.Differ.compare ~original:border_ir ~translation in
  check bool_t "behavior MED diff" true
    (List.exists
       (function
         | Campion.Differ.Behavior b ->
             List.exists (fun (attr, _, _) -> attr = "MED") b.Campion.Differ.effect_detail
         | _ -> false)
       findings)

let test_campion_redistribution_difference () =
  let translation = with_fault Llmsim.Error_class.Redistribution_unscoped Llmsim.Fault.Whole_config in
  let findings = Campion.Differ.compare ~original:border_ir ~translation in
  check bool_t "redistribution flagged with non-bgp witness" true
    (List.exists
       (function
         | Campion.Differ.Behavior b -> b.Campion.Differ.is_redistribution
         | _ -> false)
       findings)

let test_campion_prefix_range_difference () =
  let translation =
    with_fault Llmsim.Error_class.Prefix_range_dropped (Llmsim.Fault.Named_list "our-networks")
  in
  let findings = Campion.Differ.compare ~original:border_ir ~translation in
  (* The dropped ge 24 means /25..32 under 1.2.3.0/24 are treated
     differently; the witness must be such a prefix. *)
  check bool_t "witness is a longer prefix of 1.2.3.0/24" true
    (List.exists
       (function
         | Campion.Differ.Behavior b ->
             Prefix.subsumes (pfx "1.2.3.0/24") b.Campion.Differ.example.Route.prefix
             && Prefix.len b.Campion.Differ.example.Route.prefix > 24
         | _ -> false)
       findings)

let test_campion_structural_masks_nothing_on_equal () =
  check bool_t "equivalent reflexive" true
    (Campion.Differ.compare ~original:border_ir
       ~translation:(reparse_junos correct_translation)
    = [])

(* The process-wide diff memo must answer exactly what a one-shot compare
   answers on each draft: the same findings and the same witnesses. *)
let witness = function
  | Campion.Differ.Behavior b -> Some (Route.to_string b.Campion.Differ.example)
  | Campion.Differ.Acl_behavior a -> Some (Packet.to_string a.Campion.Differ.packet)
  | _ -> None

let check_shared label ~original ~translation =
  let got = Campion.Differ.check ~original ~translation in
  let want = Campion.Differ.compare ~original ~translation in
  let strings fs = String.concat "\n" (List.map Campion.Differ.finding_to_string fs) in
  if strings want <> strings got then
    failwith (Printf.sprintf "%s: findings\nwant:\n%s\ngot:\n%s" label (strings want) (strings got));
  expect (label ^ ": witnesses") (List.filter_map witness want = List.filter_map witness got);
  got

(* Walk a translation conversation the way the loop does: the first
   finding's prompt goes back automated, and to a human once it has been
   sent four times. *)
let walk_translation ~sample ~seed =
  let original = fst (Cisco.Parser.parse sample) in
  let chat =
    Llmsim.Chat.start ~seed ~regression_rate:0.2 Llmsim.Fault.Junos_cfg
      ~correct:(Juniper.Translate.of_cisco_ir original)
  in
  let sent = Hashtbl.create 8 in
  let rec go step =
    let ir, diags = Batfish.Parse_check.check Batfish.Parse_check.Junos (Llmsim.Chat.draft chat) in
    let prompt =
      match List.find_opt Diag.is_error diags with
      | Some d -> Some (Cosynth.Humanizer.of_diag d)
      | None -> (
          let label = Printf.sprintf "seed %d step %d" seed step in
          match check_shared label ~original ~translation:ir with
          | f :: _ -> Some (Cosynth.Humanizer.of_campion f)
          | [] -> None)
    in
    match prompt with
    | Some { Cosynth.Humanizer.text; refs } when step < 60 ->
        let tries = Option.value ~default:0 (Hashtbl.find_opt sent text) in
        let strength = if tries < 4 then Llmsim.Chat.Auto else Llmsim.Chat.Human in
        Hashtbl.replace sent text (if tries < 4 then tries + 1 else 0);
        Llmsim.Chat.respond chat { Llmsim.Chat.text; refs; strength };
        go (step + 1)
    | _ -> ()
  in
  go 1

let test_checker_translation_walks () =
  Exec.Memo.reset ();
  (* The two domains walk the seeds in opposite orders. *)
  twice (fun d ->
      List.iter
        (fun sample ->
          for i = 1 to 10 do
            walk_translation ~sample ~seed:(if d = 0 then i else 11 - i)
          done)
        [ Cisco.Samples.border_router; Cisco.Samples.edge_router; Cisco.Samples.minimal ]);
  let s = Netcore.Memo_table.stats "diff_memo" in
  check bool_t "diffs repeat within and across walks" true
    (s.Exec.Memo.hits > 3 * s.Exec.Memo.misses)

let test_checker_junos_mutants () =
  let corpus = Fuzz.Corpus.texts Fuzz.Corpus.Junos in
  let clean = Array.make 2 0 in
  twice (fun d ->
      for round = 0 to 299 do
        let text = Fuzz.Mutator.mutant ~seed:12 ~round ~corpus in
        let ir, diags = Batfish.Parse_check.check Batfish.Parse_check.Junos text in
        if not (List.exists Diag.is_error diags) then begin
          clean.(d) <- clean.(d) + 1;
          ignore
            (check_shared
               (Printf.sprintf "domain %d mutant %d" d round)
               ~original:border_ir ~translation:ir)
        end
      done);
  check bool_t "enough clean mutants" true (clean.(0) >= 50 && clean.(1) = clean.(0))

(* Edits that leave every route map alone and change only a list the diff
   reads. Each one changes the answer, so a memo key that missed the edited
   list would hand back the stale one. The last edit adds a community list
   nothing references: it still moves the witness, because witnesses are
   decorated with communities drawn from every list, in order. *)
let with_lists ?(prefix_lists = []) ?(as_path_lists = []) ?(community_lists = []) ir =
  let replace name_of lists =
    List.map (fun l ->
        Option.value ~default:l (List.find_opt (fun n -> name_of n = name_of l) lists))
  in
  {
    ir with
    Config_ir.prefix_lists =
      replace (fun (l : Prefix_list.t) -> l.Prefix_list.name) prefix_lists
        ir.Config_ir.prefix_lists;
    as_path_lists =
      replace (fun (l : As_path_list.t) -> l.As_path_list.name) as_path_lists
        ir.Config_ir.as_path_lists;
    community_lists = community_lists @ ir.Config_ir.community_lists;
  }

let export_only sets lists =
  {
    (Config_ir.empty "r") with
    Config_ir.community_lists = lists;
    route_maps = [ Route_map.make "pol" [ Route_map.entry ~sets 10 ] ];
    bgp =
      Some
        {
          Config_ir.asn = 65001;
          router_id = None;
          networks = [];
          neighbors =
            [
              Config_ir.neighbor (ip "10.0.0.2") ~remote_as:65002 ~local_as:65001
                ~export_policy:"pol";
            ];
          redistributions = [];
        };
  }

let environment_edits () =
  let answer label (original, translation) =
    List.map
      (fun f -> (Campion.Differ.finding_to_string f, witness f))
      (check_shared label ~original ~translation)
  in
  let moves label before after =
    let before = answer (label ^ " before") before in
    let after = answer (label ^ " after") after in
    expect (label ^ " changes the answer") (before <> after)
  in
  let edge_ir = fst (Cisco.Parser.parse Cisco.Samples.edge_router) in
  let edge_junos = Juniper.Translate.of_cisco_ir edge_ir in
  let own_le_23 =
    Prefix_list.make "own" [ Prefix_list.entry 5 (Prefix_range.le (pfx "30.1.0.0/16") 23) ]
  in
  moves "prefix-list range" (edge_ir, edge_junos)
    (edge_ir, with_lists ~prefix_lists:[ own_le_23 ] edge_junos);
  (* Permitting what seq 15 denies puts a difference where the AS path
     matches no-far; the original's regex picks the witness path. *)
  let permit_15 =
    match Config_ir.find_route_map edge_junos "from_provider_a" with
    | None -> failwith "edge router has no from_provider_a"
    | Some m ->
        Route_map.make m.Route_map.name
          (List.map
             (fun (e : Route_map.entry) ->
               if e.Route_map.seq = 15 then { e with Route_map.action = Action.Permit } else e)
             m.Route_map.entries)
  in
  let flipped = Config_ir.with_route_map edge_junos permit_15 in
  let no_far regex =
    with_lists ~as_path_lists:[ As_path_list.make "no-far" [ As_path_list.entry regex ] ] edge_ir
  in
  moves "as-path regex" (no_far "^65001_", flipped) (no_far "^65001_65002_", flipped);
  (* One map deletes the communities in DEL and the other keeps them, so
     the witness needs one of DEL's communities. *)
  let del =
    Community_list.make "DEL"
      [ Community_list.entry [ comm "100:1" ]; Community_list.entry [ comm "100:2" ] ]
  in
  let deleting = export_only [ Route_map.Set_community_delete "DEL" ] in
  let keeping = export_only [] [ del ] in
  moves "unreferenced community list" (deleting [ del ], keeping)
    (deleting [ cl "unused" "100:2"; del ], keeping)

let test_checker_environment_edits () = twice (fun _ -> environment_edits ())

(* The key hash must read past the map names: two keys that differ only in
   the last entry of one of the border router's maps hash apart. With
   [Hashtbl.hash] every pair here collides. *)
let test_checker_key_hash () =
  let env = Eval.env_of_config correct_translation in
  let maps = correct_translation.Config_ir.route_maps in
  check int_t "the border router's translation has five maps" 5 (List.length maps);
  List.iter
    (fun (m : Route_map.t) ->
      let edited =
        match List.rev m.Route_map.entries with
        | [] -> Alcotest.failf "map %s has no entries" m.Route_map.name
        | last :: rest ->
            let flipped =
              match last.Route_map.action with
              | Action.Permit -> Action.Deny
              | Action.Deny -> Action.Permit
            in
            Route_map.make m.Route_map.name
              (List.rev ({ last with Route_map.action = flipped } :: rest))
      in
      let hash = Campion.Differ.policy_key_hash ~env_a:env ~env_b:env m in
      check bool_t (m.Route_map.name ^ ": last entry moves the hash") true
        (hash m <> hash edited))
    maps

let () =
  Alcotest.run "verifiers"
    [
      ( "parse-check",
        [
          Alcotest.test_case "dialect dispatch" `Quick test_parse_check_dialects;
          Alcotest.test_case "lint included" `Quick test_parse_check_lint_included;
        ] );
      ( "search-route-policies",
        [
          Alcotest.test_case "holds" `Quick test_srp_holds;
          Alcotest.test_case "counterexample" `Quick test_srp_counterexample;
          Alcotest.test_case "adds community" `Quick test_srp_adds_community;
          Alcotest.test_case "policy missing" `Quick test_srp_policy_missing;
          Alcotest.test_case "differential on star hubs" `Quick test_srp_differential;
          Alcotest.test_case "verdict memo: key lists" `Quick test_verdict_key_lists;
          Alcotest.test_case "verdict memo: spec lists" `Quick test_verdict_key_spec_lists;
          Alcotest.test_case "verdict memo: key hash" `Quick test_verdict_key_hash;
          Alcotest.test_case "verdict memo: plan shared" `Quick test_plan_shared;
          Alcotest.test_case "draft memo: key" `Quick test_draft_key;
        ] );
      ( "bgp-sim",
        [
          Alcotest.test_case "converges" `Quick test_sim_converges;
          Alcotest.test_case "customer reachable" `Quick test_sim_customer_reachable_everywhere;
          Alcotest.test_case "no transit with filters" `Quick test_sim_no_transit;
          Alcotest.test_case "communities tagged" `Quick test_sim_communities_tagged;
          Alcotest.test_case "loop prevention" `Quick test_sim_as_path_loop_prevention;
          Alcotest.test_case "transit without filters" `Quick test_sim_without_filters_transits;
          Alcotest.test_case "missing config isolated" `Quick test_sim_missing_config_is_isolated;
        ] );
      ( "topology-verifier",
        [
          Alcotest.test_case "clean configs" `Quick test_topo_clean;
          Alcotest.test_case "wrong local as" `Quick test_topo_wrong_local_as;
          Alcotest.test_case "missing neighbor" `Quick test_topo_missing_neighbor;
          Alcotest.test_case "incorrect network" `Quick test_topo_incorrect_network;
          Alcotest.test_case "interface address" `Quick test_topo_interface_address;
          Alcotest.test_case "mask length" `Quick test_topo_mask_length_mismatch;
          Alcotest.test_case "missing interfaces" `Quick test_topo_missing_interface;
          Alcotest.test_case "router id absent" `Quick test_topo_router_id_absent;
          Alcotest.test_case "no bgp process" `Quick test_topo_no_bgp_process;
          Alcotest.test_case "from json" `Quick test_topo_from_json;
        ] );
      ( "campion",
        [
          Alcotest.test_case "clean on correct translation" `Quick
            test_campion_clean_on_correct_translation;
          Alcotest.test_case "missing policy" `Quick test_campion_missing_policy;
          Alcotest.test_case "cost difference" `Quick test_campion_cost_difference;
          Alcotest.test_case "med difference" `Quick test_campion_med_difference;
          Alcotest.test_case "redistribution difference" `Quick
            test_campion_redistribution_difference;
          Alcotest.test_case "prefix range difference" `Quick
            test_campion_prefix_range_difference;
          Alcotest.test_case "equivalence reflexive" `Quick
            test_campion_structural_masks_nothing_on_equal;
          Alcotest.test_case "shared checker: translation walks" `Quick
            test_checker_translation_walks;
          Alcotest.test_case "shared checker: junos mutants" `Quick test_checker_junos_mutants;
          Alcotest.test_case "shared checker: environment edits" `Quick
            test_checker_environment_edits;
          Alcotest.test_case "shared checker: key hash reads every entry" `Quick
            test_checker_key_hash;
        ] );
    ]
