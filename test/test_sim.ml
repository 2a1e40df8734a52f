(* Tests for the control-plane simulators on richer topologies: multi-hop
   BGP propagation over chains, loop prevention on rings, the OSPF SPF
   computation, and the full OSPF-into-BGP redistribution pipeline. *)

open Netcore
open Policy

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int
let pfx = Prefix.of_string_exn
let ip = Ipv4.of_string_exn

(* ------------------------------------------------------------------ *)
(* Chains and rings (BGP)                                              *)
(* ------------------------------------------------------------------ *)

(* Plain BGP configurations for an arbitrary topology: every router
   announces its connected networks to every neighbor with no policies. *)
let plain_bgp_configs (t : Topology.t) =
  List.map
    (fun (r : Topology.router) ->
      let interfaces =
        List.map
          (fun (p : Topology.port) ->
            Config_ir.interface
              ~address:(p.Topology.addr, Prefix.len p.Topology.subnet)
              p.Topology.iface)
          r.Topology.ports
      in
      let neighbors =
        List.map
          (fun (s : Topology.session) ->
            Config_ir.neighbor s.Topology.peer_addr ~remote_as:s.Topology.peer_asn)
          (Topology.sessions_of t r.Topology.name)
      in
      let config =
        {
          (Config_ir.empty r.Topology.name) with
          Config_ir.interfaces;
          bgp =
            Some
              {
                Config_ir.asn = r.Topology.asn;
                router_id = Some r.Topology.router_id;
                networks = Topology.networks_of t r.Topology.name;
                neighbors;
                redistributions = [];
              };
        }
      in
      (r.Topology.name, config))
    t.Topology.routers

let chain5 = Topo_gen.chain ~routers:5
let chain5_net = { Batfish.Bgp_sim.topology = chain5; configs = plain_bgp_configs chain5 }
let chain5_ribs = Batfish.Bgp_sim.run chain5_net

let test_chain_propagates_end_to_end () =
  (* R5 learns R1's stub network across four hops. *)
  match Batfish.Bgp_sim.lookup chain5_ribs ~router:"R5" (pfx "10.1.0.0/24") with
  | Some e ->
      check int_t "as-path length 4" 4 (As_path.length e.Batfish.Bgp_sim.route.Route.as_path);
      check bool_t "path is 4 3 2 1" true
        (As_path.to_string e.Batfish.Bgp_sim.route.Route.as_path = "4 3 2 1");
      check bool_t "learned from R4" true (e.Batfish.Bgp_sim.learned_from = Some "R4")
  | None -> Alcotest.fail "R5 must learn 10.1.0.0/24"

let test_chain_everyone_learns_everything () =
  List.iter
    (fun k ->
      List.iter
        (fun j ->
          check bool_t (Printf.sprintf "R%d knows 10.%d.0.0/24" k j) true
            (Batfish.Bgp_sim.reachable chain5_ribs
               ~router:(Printf.sprintf "R%d" k)
               (pfx (Printf.sprintf "10.%d.0.0/24" j))))
        [ 1; 2; 3; 4; 5 ])
    [ 1; 2; 3; 4; 5 ]

let test_ring_converges_and_prefers_short_side () =
  let ring = Topo_gen.ring ~routers:6 in
  let net = { Batfish.Bgp_sim.topology = ring; configs = plain_bgp_configs ring } in
  let ribs = Batfish.Bgp_sim.run net in
  (* R2's route to R1's stub goes directly (1 hop), not the long way. *)
  (match Batfish.Bgp_sim.lookup ribs ~router:"R2" (pfx "10.1.0.0/24") with
  | Some e -> check int_t "one hop" 1 (As_path.length e.Batfish.Bgp_sim.route.Route.as_path)
  | None -> Alcotest.fail "R2 must know R1's stub");
  (* R4 is equidistant-ish: path length must be min(3, 3) = 3. *)
  match Batfish.Bgp_sim.lookup ribs ~router:"R4" (pfx "10.1.0.0/24") with
  | Some e ->
      check int_t "shortest side" 3 (As_path.length e.Batfish.Bgp_sim.route.Route.as_path)
  | None -> Alcotest.fail "R4 must know R1's stub"

let test_ring_no_loops () =
  let ring = Topo_gen.ring ~routers:5 in
  let net = { Batfish.Bgp_sim.topology = ring; configs = plain_bgp_configs ring } in
  let ribs = Batfish.Bgp_sim.run net in
  List.iter
    (fun k ->
      let name = Printf.sprintf "R%d" k in
      List.iter
        (fun (e : Batfish.Bgp_sim.rib_entry) ->
          check bool_t "no own AS in path" false
            (As_path.mem k e.Batfish.Bgp_sim.route.Route.as_path))
        (Batfish.Bgp_sim.rib ribs name))
    [ 1; 2; 3; 4; 5 ]

let test_bgp_prefers_local_pref_then_path_length () =
  (* On the ring, give R4 an import policy on the long-way neighbor (R5)
     that sets a high local preference for R1's stub: R4 must now prefer
     the longer path. *)
  let ring = Topo_gen.ring ~routers:6 in
  let configs = plain_bgp_configs ring in
  let r4 = List.assoc "R4" configs in
  let pl = Prefix_list.make "r1stub" [ Prefix_list.entry 5 (Prefix_range.exact (pfx "10.1.0.0/24")) ] in
  let prefer =
    Route_map.make "PREFER_LONG"
      [
        Route_map.entry ~matches:[ Route_map.Match_prefix_list "r1stub" ]
          ~sets:[ Route_map.Set_local_pref 200 ] 10;
        Route_map.entry 20;
      ]
  in
  let r4 =
    match r4.Config_ir.bgp with
    | Some b ->
        let neighbors =
          List.map
            (fun (n : Config_ir.neighbor) ->
              (* R5's address on the R4-R5 link (link 4, side a = R4...). The
                 session toward R5 is the one whose remote AS is 5. *)
              if n.Config_ir.remote_as = 5 then
                { n with Config_ir.import_policy = Some "PREFER_LONG" }
              else n)
            b.Config_ir.neighbors
        in
        {
          r4 with
          Config_ir.prefix_lists = [ pl ];
          route_maps = [ prefer ];
          bgp = Some { b with Config_ir.neighbors };
        }
    | None -> assert false
  in
  let configs = ("R4", r4) :: List.remove_assoc "R4" configs in
  let ribs = Batfish.Bgp_sim.run { Batfish.Bgp_sim.topology = ring; configs } in
  match Batfish.Bgp_sim.lookup ribs ~router:"R4" (pfx "10.1.0.0/24") with
  | Some e ->
      check int_t "takes the long way (lp wins over length)" 3
        (As_path.length e.Batfish.Bgp_sim.route.Route.as_path);
      check bool_t "via R5" true (e.Batfish.Bgp_sim.learned_from = Some "R5");
      check int_t "local pref applied" 200 e.Batfish.Bgp_sim.route.Route.local_pref
  | None -> Alcotest.fail "R4 must know R1's stub"

(* ------------------------------------------------------------------ *)
(* OSPF                                                                *)
(* ------------------------------------------------------------------ *)

(* A 3-router chain running OSPF: costs accumulate along the path. *)
let ospf_chain_configs ?(passive_middle = false) ?(r1_cost = 10) () =
  let t = Topo_gen.chain ~routers:3 in
  let base = plain_bgp_configs t in
  let with_ospf name config =
    let member_ifaces =
      List.filter_map
        (fun (i : Config_ir.interface) -> Option.map (fun _ -> i.Config_ir.iface) i.Config_ir.address)
        config.Config_ir.interfaces
    in
    let interfaces =
      List.map
        (fun iface ->
          {
            Config_ir.iface;
            cost = (if name = "R1" then Some r1_cost else None);
            passive =
              passive_middle && name = "R2"
              && Iface.equal iface (Iface.ethernet ~slot:0 ~port:2);
            area = 0;
          })
        member_ifaces
    in
    {
      config with
      Config_ir.bgp = None;
      ospf =
        Some
          {
            Config_ir.process_id = 1;
            router_id = None;
            networks = [ (Prefix.default, 0) ];
            interfaces;
            redistributions = [];
          };
    }
  in
  (t, List.map (fun (n, c) -> (n, with_ospf n c)) base)

(* The cost of R1's OSPF route to [prefix], if it has one. *)
let ospf_cost ribs prefix =
  Option.map
    (fun e -> e.Batfish.Ospf_sim.cost)
    (Batfish.Ospf_sim.lookup ribs ~router:"R1" (pfx prefix))

let test_ospf_costs_accumulate () =
  let t, configs = ospf_chain_configs () in
  let ribs = Batfish.Ospf_sim.run { Batfish.Bgp_sim.topology = t; configs } in
  (* R1 -> R3's stub: R1 out (10) + R2 out (10) + R3 stub interface (10). *)
  check bool_t "cost 30" true
    (ospf_cost ribs "10.3.0.0/24" = Some 30);
  (* Own subnet at interface cost. *)
  check bool_t "own stub cost" true
    (ospf_cost ribs "10.1.0.0/24" = Some 10)

let test_ospf_explicit_cost_honored () =
  let t, configs = ospf_chain_configs ~r1_cost:55 () in
  let ribs = Batfish.Ospf_sim.run { Batfish.Bgp_sim.topology = t; configs } in
  (* R1's outgoing cost is now 55: 55 + 10 + 10. *)
  check bool_t "cost 75" true
    (ospf_cost ribs "10.3.0.0/24" = Some 75)

let test_ospf_passive_blocks_adjacency () =
  let t, configs = ospf_chain_configs ~passive_middle:true () in
  let ribs = Batfish.Ospf_sim.run { Batfish.Bgp_sim.topology = t; configs } in
  (* R2's interface toward R3 is passive: no adjacency, R1 cannot reach
     R3's networks, but R2 still advertises that link's subnet. *)
  check bool_t "R3 stub unreachable from R1" false
    (Batfish.Ospf_sim.lookup ribs ~router:"R1" (pfx "10.3.0.0/24") <> None);
  check bool_t "the passive link's subnet is still advertised" true
    (Batfish.Ospf_sim.lookup ribs ~router:"R1" (pfx "172.16.2.0/24") <> None)

let test_ospf_next_hop () =
  let t, configs = ospf_chain_configs () in
  let ribs = Batfish.Ospf_sim.run { Batfish.Bgp_sim.topology = t; configs } in
  match Batfish.Ospf_sim.lookup ribs ~router:"R1" (pfx "10.3.0.0/24") with
  | Some e -> check bool_t "via R2" true (e.Batfish.Ospf_sim.next_hop = Some "R2")
  | None -> Alcotest.fail "expected a route"

(* ------------------------------------------------------------------ *)
(* OSPF -> BGP redistribution, end to end                              *)
(* ------------------------------------------------------------------ *)

(* The border router of the translation use case, attached to a provider:
   its OSPF interior (loopback + customer LAN) is redistributed into BGP
   through ospf_to_bgp, which only admits 1.2.3.0/24 ge 24. *)
let border_topology =
  {
    Topology.routers =
      [
        {
          Topology.name = "border1";
          asn = 65001;
          router_id = ip "1.1.1.1";
          ports =
            [
              { Topology.iface = Iface.ethernet ~slot:0 ~port:1;
                addr = ip "2.3.4.1";
                subnet = pfx "2.3.4.0/24" };
            ];
          stub_networks = [];
        };
        {
          Topology.name = "provider";
          asn = 65002;
          router_id = ip "2.3.4.5";
          ports =
            [
              { Topology.iface = Iface.ethernet ~slot:0 ~port:1;
                addr = ip "2.3.4.5";
                subnet = pfx "2.3.4.0/24" };
            ];
          stub_networks = [];
        };
      ];
    links =
      [
        {
          Topology.a =
            { Topology.router = "border1";
              iface = Iface.ethernet ~slot:0 ~port:1;
              addr = ip "2.3.4.1" };
          b =
            { Topology.router = "provider";
              iface = Iface.ethernet ~slot:0 ~port:1;
              addr = ip "2.3.4.5" };
          subnet = pfx "2.3.4.0/24";
        };
      ];
  }

let provider_config =
  {
    (Config_ir.empty "provider") with
    Config_ir.interfaces =
      [ Config_ir.interface ~address:(ip "2.3.4.5", 24) (Iface.ethernet ~slot:0 ~port:1) ];
    bgp =
      Some
        {
          Config_ir.asn = 65002;
          router_id = Some (ip "2.3.4.5");
          networks = [];
          neighbors = [ Config_ir.neighbor (ip "2.3.4.1") ~remote_as:65001 ];
          redistributions = [];
        };
  }

let border_without_network_statement =
  (* Drop the BGP network statement so 1.2.3.0/24 can only arrive at the
     provider via redistribution. *)
  let c = fst (Cisco.Parser.parse Cisco.Samples.border_router) in
  match c.Config_ir.bgp with
  | Some b -> { c with Config_ir.bgp = Some { b with Config_ir.networks = [] } }
  | None -> assert false

let redistribution_ribs =
  Batfish.Bgp_sim.run
    {
      Batfish.Bgp_sim.topology = border_topology;
      configs = [ ("border1", border_without_network_statement); ("provider", provider_config) ];
    }

let test_redistribution_delivers_interior_route () =
  (* 1.2.3.0/24 is in OSPF (eth0/0's subnet), admitted by ospf_to_bgp,
     exported through to_provider. *)
  match Batfish.Bgp_sim.lookup redistribution_ribs ~router:"provider" (pfx "1.2.3.0/24") with
  | Some e ->
      check bool_t "via border1" true (e.Batfish.Bgp_sim.learned_from = Some "border1");
      (* to_provider sets MED 50 on our-networks. *)
      check int_t "med set by export policy" 50 e.Batfish.Bgp_sim.route.Route.med
  | None -> Alcotest.fail "provider must learn the redistributed route"

let test_redistribution_filters_loopback () =
  (* The loopback 1.1.1.1/32 is in OSPF but ospf_to_bgp only admits
     1.2.3.0/24 ge 24: it must NOT reach the provider. *)
  check bool_t "loopback not redistributed" false
    (Batfish.Bgp_sim.reachable redistribution_ribs ~router:"provider" (pfx "1.1.1.1/32"))

let test_redistribution_without_route_map_leaks () =
  (* Removing the route map from the redistribution (policy = None) leaks
     every OSPF route, loopback included. *)
  let leaky =
    match border_without_network_statement.Config_ir.bgp with
    | Some b ->
        {
          border_without_network_statement with
          Config_ir.bgp =
            Some
              {
                b with
                Config_ir.redistributions =
                  [ { Config_ir.from_protocol = Route.Ospf; policy = None } ];
              };
        }
    | None -> assert false
  in
  let ribs =
    Batfish.Bgp_sim.run
      {
        Batfish.Bgp_sim.topology = border_topology;
        configs = [ ("border1", leaky); ("provider", provider_config) ];
      }
  in
  (* The loopback now enters border1's BGP table (the leak)... *)
  (match Batfish.Bgp_sim.lookup ribs ~router:"border1" (pfx "1.1.1.1/32") with
  | Some e ->
      check bool_t "ospf-sourced" true (e.Batfish.Bgp_sim.route.Route.source = Route.Ospf)
  | None -> Alcotest.fail "loopback should enter the BGP table");
  (* ...though the to_provider export policy still blocks it downstream —
     defense in depth, matching IOS. With the filtered redistribution it
     never even enters the table: *)
  check bool_t "filtered redistribution keeps it out of the table" false
    (Batfish.Bgp_sim.reachable redistribution_ribs ~router:"border1" (pfx "1.1.1.1/32"))

let test_redistributed_route_keeps_source_until_sent () =
  (* In border1's own RIB the redistributed route is OSPF-sourced (so
     protocol-scoped export policies see it); on the wire it becomes BGP. *)
  (match Batfish.Bgp_sim.lookup redistribution_ribs ~router:"border1" (pfx "1.2.3.0/24") with
  | Some e -> check bool_t "ospf-sourced locally" true (e.Batfish.Bgp_sim.route.Route.source = Route.Ospf)
  | None -> Alcotest.fail "border1 must hold the route");
  match Batfish.Bgp_sim.lookup redistribution_ribs ~router:"provider" (pfx "1.2.3.0/24") with
  | Some e -> check bool_t "bgp on the wire" true (e.Batfish.Bgp_sim.route.Route.source = Route.Bgp)
  | None -> Alcotest.fail "provider must hold the route"

(* ------------------------------------------------------------------ *)
(* Static routes                                                       *)
(* ------------------------------------------------------------------ *)

let test_static_round_trips () =
  let base = Config_ir.empty "r" in
  let cfg =
    {
      base with
      Config_ir.statics =
        [
          { Config_ir.destination = pfx "192.168.0.0/16"; next_hop = ip "2.3.4.9" };
          { Config_ir.destination = pfx "0.0.0.0/0"; next_hop = ip "2.3.4.5" };
        ];
    }
  in
  let cisco_back, d1 = Cisco.Parser.parse (Cisco.Printer.print cfg) in
  check int_t "cisco no diags" 0 (List.length d1);
  check bool_t "cisco round trip" true (cisco_back.Config_ir.statics = cfg.Config_ir.statics);
  let junos_back, d2 = Juniper.Parser.parse (Juniper.Printer.print cfg) in
  check int_t "junos no diags" 0 (List.length d2);
  check bool_t "junos round trip" true (junos_back.Config_ir.statics = cfg.Config_ir.statics)

let test_static_redistribution () =
  (* border1 statically routes a slice of its customer block (so the
     to_provider export policy admits it) and redistributes static into BGP
     through a permissive route map: the provider learns it. *)
  let border =
    let c = border_without_network_statement in
    match c.Config_ir.bgp with
    | Some b ->
        {
          c with
          Config_ir.statics =
            [ { Config_ir.destination = pfx "1.2.3.128/25"; next_hop = ip "1.2.3.4" } ];
          route_maps = c.Config_ir.route_maps @ [ Route_map.permit_all "static_to_bgp" ];
          bgp =
            Some
              {
                b with
                Config_ir.redistributions =
                  b.Config_ir.redistributions
                  @ [ { Config_ir.from_protocol = Route.Static; policy = Some "static_to_bgp" } ];
              };
        }
    | None -> assert false
  in
  let ribs =
    Batfish.Bgp_sim.run
      {
        Batfish.Bgp_sim.topology = border_topology;
        configs = [ ("border1", border); ("provider", provider_config) ];
      }
  in
  match Batfish.Bgp_sim.lookup ribs ~router:"provider" (pfx "1.2.3.128/25") with
  | Some e ->
      check int_t "export policy applied on the way out" 50 e.Batfish.Bgp_sim.route.Route.med
  | None -> Alcotest.fail "provider must learn the redistributed static route"

(* ------------------------------------------------------------------ *)
(* Mixed-vendor network: translate the no-transit hub to Junos         *)
(* ------------------------------------------------------------------ *)

let test_mixed_vendor_no_transit () =
  (* Synthesize the Cisco star, translate the hub to Juniper, re-parse it
     from Junos text, and re-verify the global policy on the mixed-vendor
     network — the two use cases composed. *)
  let star = Star.make ~routers:5 in
  let configs =
    List.map
      (fun (t : Cosynth.Modularizer.router_task) ->
        (t.Cosynth.Modularizer.router, t.Cosynth.Modularizer.correct))
      (Cosynth.Modularizer.plan star)
  in
  let hub = List.assoc "R1" configs in
  let junos_text = Juniper.Printer.print (Juniper.Translate.of_cisco_ir hub) in
  let hub_junos, diags = Juniper.Parser.parse junos_text in
  check int_t "translation parses clean" 0 (List.length diags);
  check bool_t "campion clean" true
    (Campion.Differ.compare ~original:hub ~translation:hub_junos = []);
  let mixed = ("R1", hub_junos) :: List.remove_assoc "R1" configs in
  let ok, violations = Cosynth.Modularizer.no_transit_holds star mixed in
  if not ok then Alcotest.failf "mixed-vendor violations: %s" (String.concat "; " violations);
  check bool_t "proof also goes through" true
    (Cosynth.Lightyear.prove_no_transit star mixed = Cosynth.Lightyear.Proved)

let test_mixed_vendor_faulty_hub_fails () =
  (* A faulty translation of the hub must break the global policy. *)
  let star = Star.make ~routers:5 in
  let configs =
    List.map
      (fun (t : Cosynth.Modularizer.router_task) ->
        (t.Cosynth.Modularizer.router, t.Cosynth.Modularizer.correct))
      (Cosynth.Modularizer.plan star)
  in
  let hub = List.assoc "R1" configs in
  let correct_junos = Juniper.Translate.of_cisco_ir hub in
  let faulty_text =
    Llmsim.Fault.render Llmsim.Fault.Junos_cfg correct_junos
      [
        Llmsim.Fault.make Llmsim.Error_class.Missing_export_policy
          (Llmsim.Fault.Neighbor (ip "1.0.0.2"));
      ]
  in
  let hub_junos, _ = Juniper.Parser.parse faulty_text in
  let mixed = ("R1", hub_junos) :: List.remove_assoc "R1" configs in
  let ok, _ = Cosynth.Modularizer.no_transit_holds star mixed in
  check bool_t "transit appears" false ok

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_chain_converges =
  QCheck2.Test.make ~name:"plain-BGP chains of any size converge fully" ~count:15
    (QCheck2.Gen.int_range 2 12) (fun n ->
      let t = Topo_gen.chain ~routers:n in
      let ribs =
        Batfish.Bgp_sim.run { Batfish.Bgp_sim.topology = t; configs = plain_bgp_configs t }
      in
      List.for_all
        (fun k ->
          List.for_all
            (fun j ->
              Batfish.Bgp_sim.reachable ribs
                ~router:(Printf.sprintf "R%d" k)
                (pfx (Printf.sprintf "10.%d.0.0/24" j)))
            (List.init n (fun i -> i + 1)))
        (List.init n (fun i -> i + 1)))

let prop_ring_paths_shortest =
  QCheck2.Test.make ~name:"ring AS-path lengths are graph distances" ~count:10
    (QCheck2.Gen.int_range 3 9) (fun n ->
      let t = Topo_gen.ring ~routers:n in
      let ribs =
        Batfish.Bgp_sim.run { Batfish.Bgp_sim.topology = t; configs = plain_bgp_configs t }
      in
      List.for_all
        (fun k ->
          List.for_all
            (fun j ->
              let d = min (abs (k - j)) (n - abs (k - j)) in
              match
                Batfish.Bgp_sim.lookup ribs
                  ~router:(Printf.sprintf "R%d" k)
                  (pfx (Printf.sprintf "10.%d.0.0/24" j))
              with
              | Some e -> As_path.length e.Batfish.Bgp_sim.route.Route.as_path = d
              | None -> false)
            (List.init n (fun i -> i + 1)))
        (List.init n (fun i -> i + 1)))

let props = List.map QCheck_alcotest.to_alcotest [ prop_chain_converges; prop_ring_paths_shortest ]

let () =
  Alcotest.run "sim"
    [
      ( "bgp-chain-ring",
        [
          Alcotest.test_case "chain propagates" `Quick test_chain_propagates_end_to_end;
          Alcotest.test_case "chain full knowledge" `Quick test_chain_everyone_learns_everything;
          Alcotest.test_case "ring shortest side" `Quick test_ring_converges_and_prefers_short_side;
          Alcotest.test_case "ring no loops" `Quick test_ring_no_loops;
          Alcotest.test_case "local-pref beats path length" `Quick
            test_bgp_prefers_local_pref_then_path_length;
        ] );
      ( "ospf",
        [
          Alcotest.test_case "costs accumulate" `Quick test_ospf_costs_accumulate;
          Alcotest.test_case "explicit cost" `Quick test_ospf_explicit_cost_honored;
          Alcotest.test_case "passive blocks adjacency" `Quick test_ospf_passive_blocks_adjacency;
          Alcotest.test_case "next hop" `Quick test_ospf_next_hop;
        ] );
      ( "redistribution",
        [
          Alcotest.test_case "interior route delivered" `Quick
            test_redistribution_delivers_interior_route;
          Alcotest.test_case "route map filters" `Quick test_redistribution_filters_loopback;
          Alcotest.test_case "no route map leaks" `Quick
            test_redistribution_without_route_map_leaks;
          Alcotest.test_case "source protocol lifecycle" `Quick
            test_redistributed_route_keeps_source_until_sent;
        ] );
      ( "statics",
        [
          Alcotest.test_case "round trips" `Quick test_static_round_trips;
          Alcotest.test_case "redistribution" `Quick test_static_redistribution;
        ] );
      ( "mixed-vendor",
        [
          Alcotest.test_case "translated hub preserves no-transit" `Quick
            test_mixed_vendor_no_transit;
          Alcotest.test_case "faulty translation breaks it" `Quick
            test_mixed_vendor_faulty_hub_fails;
        ] );
      ("properties", props);
    ]
