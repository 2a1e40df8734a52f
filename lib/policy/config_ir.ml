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

(* Route maps named by a BGP neighbor or a redistribution, with repeats. *)
let policy_references t =
  let of_redistributions acc rs =
    List.fold_left (fun acc r -> match r.policy with Some p -> p :: acc | None -> acc) acc rs
  in
  let acc =
    match t.ospf with None -> [] | Some o -> of_redistributions [] o.redistributions
  in
  match t.bgp with
  | None -> acc
  | Some b ->
      List.fold_left
        (fun acc n ->
          let acc = match n.import_policy with Some p -> p :: acc | None -> acc in
          match n.export_policy with Some p -> p :: acc | None -> acc)
        (of_redistributions acc b.redistributions)
        b.neighbors

module Names = Hashtbl.Make (String)

(* What a name is defined as, one bit per kind of definition. *)
let route_map_bit = 1
let prefix_list_bit = 2
let community_list_bit = 4
let as_path_list_bit = 8
let acl_bit = 16

let undefined_references t =
  let defined = Names.create 64 in
  let define bit name =
    let bits = match Names.find defined name with b -> b | exception Not_found -> 0 in
    Names.replace defined name (bits lor bit)
  in
  List.iter (fun (m : Route_map.t) -> define route_map_bit m.name) t.route_maps;
  List.iter (fun (l : Prefix_list.t) -> define prefix_list_bit l.name) t.prefix_lists;
  List.iter (fun (l : Community_list.t) -> define community_list_bit l.name) t.community_lists;
  List.iter (fun (l : As_path_list.t) -> define as_path_list_bit l.name) t.as_path_lists;
  List.iter (fun (a : Acl.t) -> define acl_bit a.name) t.acls;
  let missing = ref [] in
  let check bit kind name =
    match Names.find defined name with
    | bits when bits land bit <> 0 -> ()
    | _ | (exception Not_found) -> missing := Printf.sprintf "%s %s" kind name :: !missing
  in
  List.iter (check route_map_bit "route-map") (policy_references t);
  let check_acl = check acl_bit "access-list" in
  List.iter
    (fun (i : interface) ->
      Option.iter check_acl i.acl_in;
      Option.iter check_acl i.acl_out)
    t.interfaces;
  let check_match = function
    | Route_map.Match_prefix_list n -> check prefix_list_bit "prefix-list" n
    | Match_community_list n -> check community_list_bit "community-list" n
    | Match_as_path n -> check as_path_list_bit "as-path-list" n
    | Match_source_protocol _ | Match_med _ | Match_tag _ -> ()
  and check_set = function
    | Route_map.Set_community_delete n -> check community_list_bit "community-list" n
    | _ -> ()
  in
  let check_entry (e : Route_map.entry) =
    List.iter check_match e.matches;
    List.iter check_set e.sets
  in
  List.iter (fun (m : Route_map.t) -> List.iter check_entry m.entries) t.route_maps;
  List.sort_uniq String.compare !missing

let unattached_route_maps t =
  match t.route_maps with
  | [] -> []
  | maps ->
      let attached = Names.create 64 in
      List.iter (fun name -> Names.replace attached name ()) (policy_references t);
      List.filter_map
        (fun (m : Route_map.t) -> if Names.mem attached m.name then None else Some m.name)
        maps
