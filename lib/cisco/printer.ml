open Netcore
open Policy

(* Every writer appends to one [Buffer.t]. Sections print their lines
   separated by newlines, as [print_route_map] returns them; [print]
   closes each non-empty section with a newline and a [!] line. *)

let str = Buffer.add_string
let chr = Buffer.add_char
let int = Buf.add_int
let ip = Ipv4.add_to_buffer

(* Start a line of a section that began at [start]: a newline separates it
   from the previous line, if any. *)
let line b start = if Buffer.length b > start then chr b '\n'

let add_spaced add b xs =
  List.iteri
    (fun i x ->
      if i > 0 then chr b ' ';
      add b x)
    xs

let add_communities = add_spaced Community.add_to_buffer

let add_match_cond b = function
  | Route_map.Match_prefix_list n ->
      str b "match ip address prefix-list ";
      str b n
  | Route_map.Match_community_list n ->
      str b "match community ";
      str b n
  | Route_map.Match_as_path n ->
      str b "match as-path ";
      str b n
  | Route_map.Match_source_protocol s ->
      str b "match source-protocol ";
      str b (Route.source_to_string s)
  | Route_map.Match_med m ->
      str b "match metric ";
      int b m
  | Route_map.Match_tag t ->
      str b "match tag ";
      int b t

let add_set_action b = function
  | Route_map.Set_med m ->
      str b "set metric ";
      int b m
  | Route_map.Set_local_pref p ->
      str b "set local-preference ";
      int b p
  | Route_map.Set_community { communities; additive } ->
      str b "set community ";
      add_communities b communities;
      if additive then str b " additive"
  | Route_map.Set_community_delete n ->
      str b "set comm-list ";
      str b n;
      str b " delete"
  | Route_map.Set_next_hop a ->
      str b "set ip next-hop ";
      ip b a
  | Route_map.Set_as_path_prepend asns ->
      str b "set as-path prepend ";
      add_spaced int b asns

let add_prefix_list b (l : Prefix_list.t) =
  let start = Buffer.length b in
  List.iter
    (fun (e : Prefix_list.entry) ->
      let r = e.range in
      let base = Prefix_range.base r in
      let ge = Prefix_range.ge_bound r and le = Prefix_range.le_bound r in
      let blen = Prefix.len base in
      line b start;
      str b "ip prefix-list ";
      str b l.name;
      str b " seq ";
      int b e.seq;
      chr b ' ';
      str b (Action.to_string e.action);
      chr b ' ';
      Prefix.add_to_buffer b base;
      if ge = blen && le = blen then ()
      else if le = 32 && ge > blen then (
        str b " ge ";
        int b ge)
      else if ge = blen then (
        str b " le ";
        int b le)
      else (
        str b " ge ";
        int b ge;
        str b " le ";
        int b le))
    l.entries

let add_community_list b (l : Community_list.t) =
  let start = Buffer.length b in
  List.iter
    (fun (e : Community_list.entry) ->
      line b start;
      str b "ip community-list standard ";
      str b l.name;
      chr b ' ';
      str b (Action.to_string e.action);
      chr b ' ';
      add_communities b e.communities)
    l.entries

let add_as_path_list b (l : As_path_list.t) =
  let start = Buffer.length b in
  List.iter
    (fun (e : As_path_list.entry) ->
      line b start;
      str b "ip as-path access-list ";
      str b l.name;
      chr b ' ';
      str b (Action.to_string e.action);
      chr b ' ';
      str b e.regex)
    l.entries

let add_route_map b (m : Route_map.t) =
  let start = Buffer.length b in
  List.iter
    (fun (e : Route_map.entry) ->
      line b start;
      str b "route-map ";
      str b m.name;
      chr b ' ';
      str b (Action.to_string e.action);
      chr b ' ';
      int b e.seq;
      List.iter
        (fun c ->
          str b "\n ";
          add_match_cond b c)
        e.matches;
      List.iter
        (fun s ->
          str b "\n ";
          add_set_action b s)
        e.sets)
    m.entries

let add_addr_spec b p =
  if Prefix.equal p Prefix.default then str b "any"
  else if Prefix.len p = 32 then (
    str b "host ";
    ip b (Prefix.addr p))
  else (
    ip b (Prefix.addr p);
    chr b ' ';
    ip b (Netmask.wildcard_of_len (Prefix.len p)))

let add_acl b (a : Acl.t) =
  str b "ip access-list extended ";
  str b a.Acl.name;
  List.iter
    (fun (e : Acl.entry) ->
      str b "\n ";
      str b (Action.to_string e.Acl.action);
      chr b ' ';
      (match e.Acl.proto with
      | Acl.Any_proto -> str b "ip"
      | Acl.Proto p -> str b (Packet.proto_to_string p));
      chr b ' ';
      add_addr_spec b e.Acl.src;
      chr b ' ';
      add_addr_spec b e.Acl.dst;
      match e.Acl.dst_port with
      | Acl.Any_port -> ()
      | Acl.Eq p ->
          str b " eq ";
          int b p
      | Acl.Port_range (lo, hi) ->
          str b " range ";
          int b lo;
          chr b ' ';
          int b hi)
    a.Acl.entries

let print_route_map m =
  let b = Buffer.create 256 in
  add_route_map b m;
  Buffer.contents b

(* The interface, BGP and OSPF blocks end every line with a newline. *)

let add_interface b (ospf : Config_ir.ospf option) (i : Config_ir.interface) =
  str b "interface ";
  str b (Iface.cisco_name i.iface);
  chr b '\n';
  (match i.description with
  | Some d ->
      str b " description ";
      str b d;
      chr b '\n'
  | None -> ());
  (match i.address with
  | Some (a, len) ->
      str b " ip address ";
      ip b a;
      chr b ' ';
      ip b (Netmask.mask_of_len len);
      chr b '\n'
  | None -> ());
  (match ospf with
  | Some o -> (
      match
        List.find_opt
          (fun (oi : Config_ir.ospf_interface) -> Iface.equal oi.iface i.iface)
          o.interfaces
      with
      | Some { cost = Some c; _ } ->
          str b " ip ospf cost ";
          int b c;
          chr b '\n'
      | Some { cost = None; _ } | None -> ())
  | None -> ());
  (match i.acl_in with
  | Some n ->
      str b " ip access-group ";
      str b n;
      str b " in\n"
  | None -> ());
  (match i.acl_out with
  | Some n ->
      str b " ip access-group ";
      str b n;
      str b " out\n"
  | None -> ());
  if i.shutdown then str b " shutdown\n"

let add_redistribution b (r : Config_ir.redistribution) =
  str b " redistribute ";
  str b
    (match r.from_protocol with
    | Route.Ospf -> "ospf 1"
    | Route.Bgp -> "bgp 1"
    | Route.Connected -> "connected"
    | Route.Static -> "static");
  (match r.policy with
  | Some p ->
      str b " route-map ";
      str b p
  | None -> ());
  chr b '\n'

let add_bgp b (bgp : Config_ir.bgp) =
  str b "router bgp ";
  int b bgp.asn;
  chr b '\n';
  (match bgp.router_id with
  | Some r ->
      str b " bgp router-id ";
      ip b r;
      chr b '\n'
  | None -> ());
  List.iter
    (fun n ->
      str b " network ";
      ip b (Prefix.addr n);
      str b " mask ";
      ip b (Netmask.mask_of_len (Prefix.len n));
      chr b '\n')
    bgp.networks;
  List.iter
    (fun (n : Config_ir.neighbor) ->
      let neighbor () =
        str b " neighbor ";
        ip b n.addr
      in
      neighbor ();
      str b " remote-as ";
      int b n.remote_as;
      chr b '\n';
      (match n.local_as with
      | Some a ->
          neighbor ();
          str b " local-as ";
          int b a;
          chr b '\n'
      | None -> ());
      (match n.description with
      | Some d ->
          neighbor ();
          str b " description ";
          str b d;
          chr b '\n'
      | None -> ());
      if n.send_community then (
        neighbor ();
        str b " send-community\n");
      if n.next_hop_self then (
        neighbor ();
        str b " next-hop-self\n");
      (match n.import_policy with
      | Some p ->
          neighbor ();
          str b " route-map ";
          str b p;
          str b " in\n"
      | None -> ());
      match n.export_policy with
      | Some p ->
          neighbor ();
          str b " route-map ";
          str b p;
          str b " out\n"
      | None -> ())
    bgp.neighbors;
  List.iter (add_redistribution b) bgp.redistributions

let add_ospf b (o : Config_ir.ospf) =
  str b "router ospf ";
  int b o.process_id;
  chr b '\n';
  (match o.router_id with
  | Some r ->
      str b " router-id ";
      ip b r;
      chr b '\n'
  | None -> ());
  List.iter
    (fun (p, area) ->
      str b " network ";
      ip b (Prefix.addr p);
      chr b ' ';
      ip b (Netmask.wildcard_of_len (Prefix.len p));
      str b " area ";
      int b area;
      chr b '\n')
    o.networks;
  List.iter
    (fun (oi : Config_ir.ospf_interface) ->
      if oi.passive then (
        str b " passive-interface ";
        str b (Iface.cisco_name oi.iface);
        chr b '\n'))
    o.interfaces;
  List.iter (add_redistribution b) o.redistributions

let add_statics b statics =
  let start = Buffer.length b in
  List.iter
    (fun (r : Config_ir.static_route) ->
      line b start;
      str b "ip route ";
      ip b (Prefix.addr r.destination);
      chr b ' ';
      ip b (Netmask.mask_of_len (Prefix.len r.destination));
      chr b ' ';
      ip b r.next_hop)
    statics

let print (c : Config_ir.t) =
  let b = Buffer.create 4096 in
  (* A section that printed anything ends with a newline and a "!" line. *)
  let section write x =
    let start = Buffer.length b in
    write b x;
    let len = Buffer.length b in
    if len > start then (
      if Buffer.nth b (len - 1) <> '\n' then chr b '\n';
      str b "!\n")
  in
  section
    (fun b h ->
      str b "hostname ";
      str b h)
    c.hostname;
  List.iter (section (fun b i -> add_interface b c.ospf i)) c.interfaces;
  section add_statics c.statics;
  List.iter (section add_acl) c.acls;
  List.iter (section add_prefix_list) c.prefix_lists;
  List.iter (section add_community_list) c.community_lists;
  List.iter (section add_as_path_list) c.as_path_lists;
  List.iter (section add_route_map) c.route_maps;
  Option.iter (section add_bgp) c.bgp;
  Option.iter (section add_ospf) c.ospf;
  Buffer.contents b
