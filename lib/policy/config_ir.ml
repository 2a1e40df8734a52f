open Netcore

type interface = {
  iface : Iface.t;
  address : (Ipv4.t * int) option;
  description : string option;
  shutdown : bool;
  acl_in : string option;
  acl_out : string option;
}

type neighbor = {
  addr : Ipv4.t;
  remote_as : int;
  local_as : int option;
  description : string option;
  import_policy : string option;
  export_policy : string option;
  next_hop_self : bool;
  send_community : bool;
}

type redistribution = { from_protocol : Route.source; policy : string option }

type bgp = {
  asn : int;
  router_id : Ipv4.t option;
  networks : Prefix.t list;
  neighbors : neighbor list;
  redistributions : redistribution list;
}

type ospf_interface = { iface : Iface.t; cost : int option; passive : bool; area : int }

type ospf = {
  process_id : int;
  router_id : Ipv4.t option;
  networks : (Prefix.t * int) list;
  interfaces : ospf_interface list;
  redistributions : redistribution list;
}

type static_route = { destination : Prefix.t; next_hop : Ipv4.t }

type t = {
  hostname : string;
  interfaces : interface list;
  prefix_lists : Prefix_list.t list;
  community_lists : Community_list.t list;
  as_path_lists : As_path_list.t list;
  route_maps : Route_map.t list;
  acls : Acl.t list;
  statics : static_route list;
  bgp : bgp option;
  ospf : ospf option;
}

let empty hostname =
  {
    hostname;
    interfaces = [];
    prefix_lists = [];
    community_lists = [];
    as_path_lists = [];
    route_maps = [];
    acls = [];
    statics = [];
    bgp = None;
    ospf = None;
  }

let interface ?address ?description ?(shutdown = false) ?acl_in ?acl_out iface =
  { iface; address; description; shutdown; acl_in; acl_out }

let neighbor ?local_as ?description ?import_policy ?export_policy
    ?(next_hop_self = false) ?(send_community = true) addr ~remote_as =
  {
    addr;
    remote_as;
    local_as;
    description;
    import_policy;
    export_policy;
    next_hop_self;
    send_community;
  }

let find_interface t i =
  List.find_opt (fun (x : interface) -> Iface.equal x.iface i) t.interfaces

let find_route_map t name =
  List.find_opt (fun (m : Route_map.t) -> m.name = name) t.route_maps

let find_prefix_list t name =
  List.find_opt (fun (l : Prefix_list.t) -> l.name = name) t.prefix_lists

let find_community_list t name =
  List.find_opt (fun (l : Community_list.t) -> l.name = name) t.community_lists

let find_as_path_list t name =
  List.find_opt (fun (l : As_path_list.t) -> l.name = name) t.as_path_lists

let find_acl t name = List.find_opt (fun (a : Acl.t) -> a.Acl.name = name) t.acls

let find_neighbor (b : bgp) addr =
  List.find_opt (fun n -> Ipv4.equal n.addr addr) b.neighbors

let with_route_map t map =
  let name = map.Route_map.name in
  let rest = List.filter (fun (m : Route_map.t) -> m.name <> name) t.route_maps in
  { t with route_maps = rest @ [ map ] }

let connected_prefixes t =
  List.filter_map
    (fun i ->
      match i.address with
      | Some (addr, len) when not i.shutdown -> Some (Prefix.make addr len)
      | _ -> None)
    t.interfaces

let undefined_references t =
  let missing = ref [] in
  let note kind name = missing := Printf.sprintf "%s %s" kind name :: !missing in
  let policy_refs =
    (match t.bgp with
    | None -> []
    | Some b ->
        List.concat_map
          (fun n ->
            Option.to_list n.import_policy @ Option.to_list n.export_policy)
          b.neighbors
        @ List.filter_map (fun r -> r.policy) b.redistributions)
    @
    match t.ospf with
    | None -> []
    | Some o -> List.filter_map (fun r -> r.policy) o.redistributions
  in
  List.iter
    (fun name -> if find_route_map t name = None then note "route-map" name)
    (List.sort_uniq String.compare policy_refs);
  List.iter
    (fun (i : interface) ->
      List.iter
        (fun name ->
          if find_acl t name = None then note "access-list" name)
        (Option.to_list i.acl_in @ Option.to_list i.acl_out))
    t.interfaces;
  List.iter
    (fun (m : Route_map.t) ->
      List.iter
        (fun n -> if find_prefix_list t n = None then note "prefix-list" n)
        (Route_map.prefix_lists_referenced m);
      List.iter
        (fun n -> if find_community_list t n = None then note "community-list" n)
        (Route_map.community_lists_referenced m);
      List.iter
        (fun n -> if find_as_path_list t n = None then note "as-path-list" n)
        (Route_map.as_path_lists_referenced m))
    t.route_maps;
  List.sort_uniq String.compare !missing
