type port = { iface : Iface.t; addr : Ipv4.t; subnet : Prefix.t }

type router = {
  name : string;
  asn : int;
  router_id : Ipv4.t;
  ports : port list;
  stub_networks : Prefix.t list;
}

type endpoint = { router : string; iface : Iface.t; addr : Ipv4.t }
type link = { a : endpoint; b : endpoint; subnet : Prefix.t }
type t = { routers : router list; links : link list }

type session = {
  local_addr : Ipv4.t;
  peer_name : string;
  peer_addr : Ipv4.t;
  peer_asn : int;
}

let find_router t name = List.find_opt (fun r -> r.name = name) t.routers

let find_router_exn t name =
  match find_router t name with
  | Some r -> r
  | None -> invalid_arg (Printf.sprintf "Topology.find_router_exn: no router %S" name)

let links_of t name =
  List.filter_map
    (fun l ->
      if l.a.router = name then Some (l.a, l.b)
      else if l.b.router = name then Some (l.b, l.a)
      else None)
    t.links

let sessions_of t name =
  List.map
    (fun ((local : endpoint), (peer : endpoint)) ->
      let peer_router = find_router_exn t peer.router in
      {
        local_addr = local.addr;
        peer_name = peer.router;
        peer_addr = peer.addr;
        peer_asn = peer_router.asn;
      })
    (links_of t name)

let networks_of t name =
  let r = find_router_exn t name in
  let link_subnets = List.map (fun (l : link) -> l.subnet) (List.filter (fun (l : link) -> l.a.router = name || l.b.router = name) t.links) in
  let all = r.stub_networks @ link_subnets in
  List.fold_left (fun acc p -> if List.exists (Prefix.equal p) acc then acc else acc @ [ p ]) [] all

let degree t name = List.length (links_of t name)

let validate t =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  let names = List.map (fun r -> r.name) t.routers in
  let rec dups = function
    | [] -> ()
    | n :: rest ->
        if List.mem n rest then err "duplicate router name %s" n;
        dups rest
  in
  dups names;
  List.iter
    (fun r ->
      if r.asn <= 0 then err "router %s: non-positive AS number %d" r.name r.asn;
      List.iter
        (fun (p : port) ->
          if not (Prefix.contains_addr p.subnet p.addr) then
            err "router %s: port %s address %s outside subnet %s" r.name
              (Iface.cisco_name p.iface) (Ipv4.to_string p.addr)
              (Prefix.to_string p.subnet))
        r.ports;
      List.iter
        (fun n ->
          if not (List.exists (fun (p : port) -> Prefix.equal p.subnet n) r.ports) then
            err "router %s: stub network %s not backed by any port" r.name
              (Prefix.to_string n))
        r.stub_networks)
    t.routers;
  let check_end (e : endpoint) subnet =
    match find_router t e.router with
    | None -> err "link endpoint references unknown router %s" e.router
    | Some r -> (
        match List.find_opt (fun (p : port) -> Iface.equal p.iface e.iface) r.ports with
        | None ->
            err "link endpoint %s:%s not a configured port" e.router
              (Iface.cisco_name e.iface)
        | Some p ->
            if not (Ipv4.equal p.addr e.addr) then
              err "link endpoint %s:%s address mismatch" e.router
                (Iface.cisco_name e.iface);
            if not (Prefix.contains_addr subnet e.addr) then
              err "link endpoint %s:%s outside link subnet %s" e.router
                (Iface.cisco_name e.iface) (Prefix.to_string subnet))
  in
  List.iter
    (fun l ->
      check_end l.a l.subnet;
      check_end l.b l.subnet;
      if l.a.router = l.b.router then err "self-link on router %s" l.a.router)
    t.links;
  match !errs with [] -> Ok () | es -> Error (List.rev es)

(* ------------------------------------------------------------------ *)
(* JSON round trip                                                     *)
(* ------------------------------------------------------------------ *)

let port_to_json (p : port) =
  Json.Obj
    [
      ("interface", Json.String (Iface.cisco_name p.iface));
      ("address", Json.String (Ipv4.to_string p.addr));
      ("subnet", Json.String (Prefix.to_string p.subnet));
    ]

let router_to_json (r : router) =
  Json.Obj
    [
      ("name", Json.String r.name);
      ("as", Json.Int r.asn);
      ("router_id", Json.String (Ipv4.to_string r.router_id));
      ("interfaces", Json.List (List.map port_to_json r.ports));
      ( "stub_networks",
        Json.List (List.map (fun n -> Json.String (Prefix.to_string n)) r.stub_networks)
      );
    ]

let endpoint_to_json (e : endpoint) =
  Json.Obj
    [
      ("router", Json.String e.router);
      ("interface", Json.String (Iface.cisco_name e.iface));
      ("address", Json.String (Ipv4.to_string e.addr));
    ]

let link_to_json (l : link) =
  Json.Obj
    [
      ("a", endpoint_to_json l.a);
      ("b", endpoint_to_json l.b);
      ("subnet", Json.String (Prefix.to_string l.subnet));
    ]

let to_json t =
  Json.Obj
    [
      ("routers", Json.List (List.map router_to_json t.routers));
      ("links", Json.List (List.map link_to_json t.links));
    ]

let ( let* ) = Result.bind

let req what o = match o with Some x -> Ok x | None -> Error ("topology json: missing or ill-typed " ^ what)

let iface_of_json v =
  let* s = req "interface" (Json.to_str v) in
  req ("interface name " ^ s) (Iface.of_cisco s)

let addr_of_json what v =
  let* s = req what (Json.to_str v) in
  req (what ^ " " ^ s) (Ipv4.of_string s)

let prefix_of_json what v =
  let* s = req what (Json.to_str v) in
  req (what ^ " " ^ s) (Prefix.of_string s)

let port_of_json v =
  let* iface = iface_of_json (Option.value ~default:Json.Null (Json.member "interface" v)) in
  let* addr = addr_of_json "address" (Option.value ~default:Json.Null (Json.member "address" v)) in
  let* subnet = prefix_of_json "subnet" (Option.value ~default:Json.Null (Json.member "subnet" v)) in
  Ok { iface; addr; subnet }

let rec map_result f = function
  | [] -> Ok []
  | x :: rest ->
      let* y = f x in
      let* ys = map_result f rest in
      Ok (y :: ys)

let router_of_json v =
  let* name = req "name" (Option.bind (Json.member "name" v) Json.to_str) in
  let* asn = req "as" (Option.bind (Json.member "as" v) Json.to_int) in
  let* router_id = addr_of_json "router_id" (Option.value ~default:Json.Null (Json.member "router_id" v)) in
  let* ifaces = req "interfaces" (Option.bind (Json.member "interfaces" v) Json.to_list) in
  let* ports = map_result port_of_json ifaces in
  let* stubs = req "stub_networks" (Option.bind (Json.member "stub_networks" v) Json.to_list) in
  let* stub_networks = map_result (prefix_of_json "stub network") stubs in
  Ok { name; asn; router_id; ports; stub_networks }

let endpoint_of_json v =
  let* router = req "router" (Option.bind (Json.member "router" v) Json.to_str) in
  let* iface = iface_of_json (Option.value ~default:Json.Null (Json.member "interface" v)) in
  let* addr = addr_of_json "address" (Option.value ~default:Json.Null (Json.member "address" v)) in
  Ok { router; iface; addr }

let link_of_json v =
  let* a = req "a" (Json.member "a" v) in
  let* a = endpoint_of_json a in
  let* b = req "b" (Json.member "b" v) in
  let* b = endpoint_of_json b in
  let* subnet = prefix_of_json "subnet" (Option.value ~default:Json.Null (Json.member "subnet" v)) in
  Ok { a; b; subnet }

let of_json v =
  let* routers = req "routers" (Option.bind (Json.member "routers" v) Json.to_list) in
  let* routers = map_result router_of_json routers in
  let* links = req "links" (Option.bind (Json.member "links" v) Json.to_list) in
  let* links = map_result link_of_json links in
  Ok { routers; links }

(* ------------------------------------------------------------------ *)
(* English description (modularizer input)                             *)
(* ------------------------------------------------------------------ *)

let describe t =
  let buf = Buffer.create 512 in
  let say fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s) fmt in
  say "The network has %d routers: %s.\n" (List.length t.routers)
    (String.concat ", " (List.map (fun r -> r.name) t.routers));
  List.iter
    (fun r ->
      say "Router %s has AS number %d and router id %s.\n" r.name r.asn
        (Ipv4.to_string r.router_id);
      List.iter
        (fun (p : port) ->
          say "Router %s has interface %s with IP address %s in subnet %s.\n"
            r.name (Iface.cisco_name p.iface) (Ipv4.to_string p.addr)
            (Prefix.to_string p.subnet))
        r.ports;
      List.iter
        (fun n ->
          say "Router %s is directly connected to network %s.\n" r.name
            (Prefix.to_string n))
        r.stub_networks)
    t.routers;
  List.iter
    (fun l ->
      say
        "Router %s is connected to router %s via interface %s at %s and \
         interface %s at %s, on subnet %s.\n"
        l.a.router l.b.router
        (Iface.cisco_name l.a.iface)
        l.a.router
        (Iface.cisco_name l.b.iface)
        l.b.router (Prefix.to_string l.subnet))
    t.links;
  Buffer.contents buf

let equal a b = a = b
let pp ppf t = Format.pp_print_string ppf (describe t)
