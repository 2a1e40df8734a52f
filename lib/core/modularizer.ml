open Netcore
open Policy

type router_task = {
  router : string;
  prompt : string;
  correct : Config_ir.t;
  specs : Batfish.Search_route_policies.spec list;
}

let suffix name =
  (* "R5" -> "R5"; map names embed the router name for readability. *)
  name

let ingress_map_name spoke = Printf.sprintf "TAG_%s" (suffix spoke)
let egress_map_name spoke = Printf.sprintf "FILTER_COMM_OUT_%s" (suffix spoke)
let community_list_name spoke = Printf.sprintf "CL_%s" (suffix spoke)

let interfaces_of_router (r : Topology.router) =
  List.map
    (fun (p : Topology.port) ->
      Config_ir.interface
        ~address:(p.Topology.addr, Prefix.len p.Topology.subnet)
        p.Topology.iface)
    r.Topology.ports

(* ------------------------------------------------------------------ *)
(* Oracle configurations                                               *)
(* ------------------------------------------------------------------ *)

let hub_config (star : Star.t) =
  let t = star.Star.topology in
  let hub = Topology.find_router_exn t star.Star.hub in
  let spokes = star.Star.spokes in
  let community s = Option.get (Star.community_of star s) in
  let community_lists =
    List.map
      (fun s -> Community_list.make (community_list_name s) [ Community_list.entry [ community s ] ])
      spokes
  in
  let tag_map s =
    Route_map.make (ingress_map_name s)
      [
        Route_map.entry
          ~sets:[ Route_map.Set_community { communities = [ community s ]; additive = true } ]
          10;
      ]
  in
  let filter_map s =
    (* One deny stanza per OTHER spoke's community (OR semantics), then a
       final permit. *)
    let others = List.filter (fun x -> x <> s) spokes in
    let denies =
      List.mapi
        (fun i other ->
          Route_map.entry ~action:Action.Deny
            ~matches:[ Route_map.Match_community_list (community_list_name other) ]
            ((i + 1) * 10))
        others
    in
    let final_permit = Route_map.entry ((List.length others + 1) * 10) in
    Route_map.make (egress_map_name s) (denies @ [ final_permit ])
  in
  let neighbors =
    List.map
      (fun (s : Topology.session) ->
        Config_ir.neighbor s.Topology.peer_addr ~remote_as:s.Topology.peer_asn
          ~import_policy:(ingress_map_name s.Topology.peer_name)
          ~export_policy:(egress_map_name s.Topology.peer_name))
      (Topology.sessions_of t star.Star.hub)
  in
  {
    (Config_ir.empty star.Star.hub) with
    Config_ir.interfaces = interfaces_of_router hub;
    community_lists;
    route_maps = List.map tag_map spokes @ List.map filter_map spokes;
    bgp =
      Some
        {
          Config_ir.asn = hub.Topology.asn;
          router_id = Some hub.Topology.router_id;
          networks = Topology.networks_of t star.Star.hub;
          neighbors;
          redistributions = [];
        };
  }

let spoke_config (star : Star.t) name =
  let t = star.Star.topology in
  let r = Topology.find_router_exn t name in
  let neighbors =
    List.map
      (fun (s : Topology.session) ->
        Config_ir.neighbor s.Topology.peer_addr ~remote_as:s.Topology.peer_asn)
      (Topology.sessions_of t name)
  in
  {
    (Config_ir.empty name) with
    Config_ir.interfaces = interfaces_of_router r;
    bgp =
      Some
        {
          Config_ir.asn = r.Topology.asn;
          router_id = Some r.Topology.router_id;
          networks = Topology.networks_of t name;
          neighbors;
          redistributions = [];
        };
  }

(* ------------------------------------------------------------------ *)
(* Local specs                                                         *)
(* ------------------------------------------------------------------ *)

let community_pred c =
  Symbolic.Pred.of_cube (Symbolic.Cube.make ~comms:(Symbolic.Comm_constr.require c) ())

let clean_pred communities =
  (* Routes carrying none of the given communities. *)
  let cube =
    List.fold_left
      (fun acc c ->
        match Symbolic.Comm_constr.inter acc (Symbolic.Comm_constr.forbid c) with
        | Some x -> x
        | None -> acc)
      Symbolic.Comm_constr.top communities
  in
  Symbolic.Pred.of_cube (Symbolic.Cube.make ~comms:cube ())

let hub_specs (star : Star.t) =
  let community s = Option.get (Star.community_of star s) in
  let spokes = star.Star.spokes in
  let tag_specs =
    List.map
      (fun s ->
        {
          Batfish.Search_route_policies.policy = ingress_map_name s;
          space = Symbolic.Pred.full;
          requirement = Batfish.Search_route_policies.Adds_community (community s);
          description = Printf.sprintf "every route learned from %s" s;
        })
      spokes
  in
  let filter_specs =
    List.concat_map
      (fun s ->
        let others = List.filter (fun x -> x <> s) spokes in
        List.map
          (fun other ->
            {
              Batfish.Search_route_policies.policy = egress_map_name s;
              space = community_pred (community other);
              requirement = Batfish.Search_route_policies.Denies;
              description =
                Printf.sprintf "routes carrying %s's community %s, at the egress to %s"
                  other
                  (Community.to_string (community other))
                  s;
            })
          others
        @ [
            {
              Batfish.Search_route_policies.policy = egress_map_name s;
              space = clean_pred (List.map community others);
              requirement = Batfish.Search_route_policies.Permits;
              description =
                Printf.sprintf
                  "routes carrying no other ISP's community, at the egress to %s" s;
            };
          ])
      spokes
  in
  tag_specs @ filter_specs

(* ------------------------------------------------------------------ *)
(* Prompts                                                             *)
(* ------------------------------------------------------------------ *)

let router_slice_description (star : Star.t) name =
  let t = star.Star.topology in
  let r = Topology.find_router_exn t name in
  let buf = Buffer.create 512 in
  let say fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  say "Generate the Cisco .cfg configuration file for router %s.\n" name;
  say "Router %s has AS number %d and router id %s.\n" name r.Topology.asn
    (Ipv4.to_string r.Topology.router_id);
  List.iter
    (fun (p : Topology.port) ->
      say "It has interface %s with IP address %s in subnet %s.\n"
        (Iface.cisco_name p.Topology.iface)
        (Ipv4.to_string p.Topology.addr)
        (Prefix.to_string p.Topology.subnet))
    r.Topology.ports;
  List.iter
    (fun (s : Topology.session) ->
      say "It has an eBGP session with router %s at IP address %s (AS %d).\n"
        s.Topology.peer_name
        (Ipv4.to_string s.Topology.peer_addr)
        s.Topology.peer_asn)
    (Topology.sessions_of t name);
  say "It should announce the networks: %s.\n"
    (String.concat ", " (List.map Prefix.to_string (Topology.networks_of t name)));
  Buffer.contents buf

let hub_policy_description (star : Star.t) =
  let buf = Buffer.create 512 in
  let say fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  say
    "Local policy (no-transit): at the ingress from each ISP router, add a \
     distinct community to every incoming route (use the 'additive' keyword); at \
     the egress to each ISP router, deny any route that carries any other ISP's \
     community, and permit everything else.\n";
  List.iter
    (fun s ->
      match Star.community_of star s with
      | Some c ->
          say
            "Use community %s for routes learned from %s: route-map %s on import, \
             route-map %s on export, community list %s.\n"
            (Community.to_string c) s (ingress_map_name s) (egress_map_name s)
            (community_list_name s)
      | None -> ())
    star.Star.spokes;
  Buffer.contents buf

let build_plan (star : Star.t) =
  let hub_task =
    {
      router = star.Star.hub;
      prompt = router_slice_description star star.Star.hub ^ hub_policy_description star;
      correct = hub_config star;
      specs = hub_specs star;
    }
  in
  let spoke_task name =
    {
      router = name;
      prompt =
        router_slice_description star name
        ^ "Local policy: announce your own networks over the BGP session; no \
           import or export filtering is required.\n";
      correct = spoke_config star name;
      specs = [];
    }
  in
  hub_task :: List.map spoke_task star.Star.spokes

(* Every loop over one star gets the same tasks, so their specs are the same
   objects, which the verdict memo's key comparison then skips. Stars of
   different sizes share their first routers, so [Hashtbl.hash] gives 29
   sizes only 3 values; the spoke count tells them apart. *)
module Plans = Netcore.Memo_table.Make (struct
  type t = Star.t

  let hash (star : t) = Hashtbl.hash (List.length star.Star.spokes)
end)

(* A sweep meets a handful of star sizes. *)
let plans = Plans.create ~name:"plan_memo" ~cap:64
let plan star = Plans.find plans star (fun () -> build_plan star)

let as_path_hub_config (star : Star.t) =
  let t = star.Star.topology in
  let hub = Topology.find_router_exn t star.Star.hub in
  let spokes = star.Star.spokes in
  let spoke_asn s = (Topology.find_router_exn t s).Topology.asn in
  (* One AS-path access list per spoke, matching any path through it. *)
  let as_path_lists =
    List.map
      (fun s ->
        As_path_list.make (Printf.sprintf "THRU_%s" s)
          [ As_path_list.entry (Printf.sprintf "_%d_" (spoke_asn s)) ])
      spokes
  in
  let filter_map s =
    let others = List.filter (fun x -> x <> s) spokes in
    let denies =
      List.mapi
        (fun i other ->
          Route_map.entry ~action:Action.Deny
            ~matches:[ Route_map.Match_as_path (Printf.sprintf "THRU_%s" other) ]
            ((i + 1) * 10))
        others
    in
    Route_map.make
      (Printf.sprintf "ASPATH_OUT_%s" s)
      (denies @ [ Route_map.entry ((List.length others + 1) * 10) ])
  in
  let neighbors =
    List.map
      (fun (sess : Topology.session) ->
        Config_ir.neighbor sess.Topology.peer_addr ~remote_as:sess.Topology.peer_asn
          ~export_policy:(Printf.sprintf "ASPATH_OUT_%s" sess.Topology.peer_name))
      (Topology.sessions_of t star.Star.hub)
  in
  {
    (Config_ir.empty star.Star.hub) with
    Config_ir.interfaces = interfaces_of_router hub;
    as_path_lists;
    route_maps = List.map filter_map spokes;
    bgp =
      Some
        {
          Config_ir.asn = hub.Topology.asn;
          router_id = Some hub.Topology.router_id;
          networks = Topology.networks_of t star.Star.hub;
          neighbors;
          redistributions = [];
        };
  }

let prepend_task (star : Star.t) ~target ~prepend =
  if not (List.mem target star.Star.spokes) then
    invalid_arg (Printf.sprintf "Modularizer.prepend_task: %s is not a spoke" target);
  let base = hub_config star in
  let map_name = egress_map_name target in
  let with_prepend =
    match Config_ir.find_route_map base map_name with
    | None -> base
    | Some m ->
        let entries = m.Route_map.entries in
        let updated =
          match List.rev entries with
          | last :: rest when last.Route_map.action = Action.Permit ->
              List.rev
                ({ last with
                   Route_map.sets =
                     last.Route_map.sets @ [ Route_map.Set_as_path_prepend prepend ] }
                :: rest)
          | _ -> entries
        in
        Config_ir.with_route_map base (Route_map.make map_name updated)
  in
  let others = List.filter (fun s -> s <> target) star.Star.spokes in
  let community s = Option.get (Star.community_of star s) in
  let new_spec =
    {
      Batfish.Search_route_policies.policy = map_name;
      space = clean_pred (List.map community others);
      requirement = Batfish.Search_route_policies.Prepends prepend;
      description =
        Printf.sprintf "routes exported to %s (those carrying no other ISP's community)"
          target;
    }
  in
  {
    router = star.Star.hub;
    prompt =
      Printf.sprintf
        "The network is already configured and verified for the no-transit policy. \
         Incrementally modify router %s's configuration so that every route \
         exported to %s has the AS path prepended with %s. Do not change the \
         behaviour of any existing policy: routes carrying another ISP's \
         community must still be denied at every egress.\n"
        star.Star.hub target
        (String.concat " " (List.map string_of_int prepend));
    correct = with_prepend;
    specs = hub_specs star @ [ new_spec ];
  }

let compose (star : Star.t) configs =
  { Batfish.Bgp_sim.topology = star.Star.topology; configs }

let transit_violations (star : Star.t) configs =
  let network = compose star configs in
  match Batfish.Bgp_sim.run network with
  | exception Batfish.Bgp_sim.Did_not_converge n ->
      [ Printf.sprintf "BGP simulation did not converge after %d iterations" n ]
  | ribs ->
      let violations = ref [] in
      let isp_prefix s = Option.get (Star.isp_prefix star s) in
      List.iter
        (fun s ->
          List.iter
            (fun other ->
              if
                other <> s
                && Batfish.Bgp_sim.reachable ribs ~router:s (isp_prefix other)
              then
                violations :=
                  Printf.sprintf "%s can reach %s's network %s" s other
                    (Prefix.to_string (isp_prefix other))
                  :: !violations)
            star.Star.spokes)
        star.Star.spokes;
      List.rev !violations

let no_transit_holds (star : Star.t) configs =
  let network = compose star configs in
  match Batfish.Bgp_sim.run network with
  | exception Batfish.Bgp_sim.Did_not_converge n ->
      (false, [ Printf.sprintf "BGP simulation did not converge after %d iterations" n ])
  | ribs ->
      let violations = ref [] in
      let bad fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
      let isp_prefix s = Option.get (Star.isp_prefix star s) in
      List.iter
        (fun s ->
          List.iter
            (fun other ->
              if
                other <> s
                && Batfish.Bgp_sim.reachable ribs ~router:s (isp_prefix other)
              then
                bad "%s can reach %s's network %s (transit through the customer!)" s
                  other
                  (Prefix.to_string (isp_prefix other)))
            star.Star.spokes;
          if not (Batfish.Bgp_sim.reachable ribs ~router:s star.Star.customer_prefix)
          then bad "%s cannot reach the CUSTOMER network" s;
          if
            not
              (Batfish.Bgp_sim.reachable ribs ~router:star.Star.hub (isp_prefix s))
          then bad "%s cannot reach ISP %s's network" star.Star.hub s)
        star.Star.spokes;
      (!violations = [], List.rev !violations)
