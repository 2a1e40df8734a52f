open Netcore
open Policy

(* The printer writes Junos statements straight into one [Buffer.t], at
   4-space indentation. A keyword with a space in it is quoted. *)

let str = Buffer.add_string
let chr = Buffer.add_char
let int = Buf.add_int

let pad b depth =
  for _ = 1 to depth * 4 do
    chr b ' '
  done

let word b w =
  if String.contains w ' ' then (
    chr b '"';
    str b w;
    chr b '"')
  else str b w

(* [open_ b depth kw] starts a statement with the literal keyword [kw];
   the caller appends its other keywords, each after a space, then ends it
   with [leaf] or [block]. *)
let open_ b depth kw =
  pad b depth;
  str b kw

let arg b w =
  chr b ' ';
  word b w

let leaf b = str b ";\n"

let kw_leaf b depth kw =
  open_ b depth kw;
  leaf b

let word_leaf b depth kw w =
  open_ b depth kw;
  arg b w;
  leaf b

let int_leaf b depth kw n =
  open_ b depth kw;
  chr b ' ';
  int b n;
  leaf b

let block b depth body =
  str b " {\n";
  body (depth + 1);
  pad b depth;
  str b "}\n"

(* ------------------------------------------------------------------ *)
(* Prefix lists -> route-filter lines                                  *)
(* ------------------------------------------------------------------ *)

let is_exact_permit_list (l : Prefix_list.t) =
  List.for_all
    (fun (e : Prefix_list.entry) ->
      e.action = Action.Permit && Prefix_range.is_exact e.range)
    l.entries

let len_runs lens =
  let rec runs acc cur = function
    | [] -> List.rev (match cur with None -> acc | Some r -> r :: acc)
    | n :: rest -> (
        match cur with
        | Some (lo, hi) when n = hi + 1 -> runs acc (Some (lo, n)) rest
        | Some r -> runs (r :: acc) (Some (n, n)) rest
        | None -> runs acc (Some (n, n)) rest)
  in
  runs [] None (Symbolic.Len_set.to_list lens)

(* The route filters of a list: each base prefix with one run of lengths. *)
let route_filter_runs l =
  let space = Symbolic.Guard.compile_prefix_list l in
  List.concat_map
    (fun (a : Symbolic.Prefix_space.atom) ->
      List.map (fun run -> (a.base, run)) (len_runs a.lens))
    (Symbolic.Prefix_space.atoms space)

let add_modifier b base (lo, hi) =
  let base_len = Prefix.len base in
  if lo = base_len && hi = base_len then str b "exact"
  else if lo = base_len && hi = 32 then str b "orlonger"
  else if lo = base_len then (
    str b "upto /";
    int b hi)
  else (
    str b "prefix-length-range /";
    int b lo;
    str b "-/";
    int b hi)

(* ------------------------------------------------------------------ *)
(* Community names                                                     *)
(* ------------------------------------------------------------------ *)

let add_community_def_name b comms =
  str b "COMM-";
  List.iteri
    (fun i (c : Community.t) ->
      if i > 0 then chr b '-';
      int b c.asn;
      chr b '-';
      int b c.value)
    comms

let community_def_name comms =
  let b = Buffer.create 32 in
  add_community_def_name b comms;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Policy statements                                                   *)
(* ------------------------------------------------------------------ *)

(* The state of one print, both lists newest first: the community
   definitions the statements name, and the route filters of each ranged
   prefix list printed so far. *)
type defs = {
  mutable communities : (string * Community.t list) list;
  mutable filters : (string * (Prefix.t * (int * int)) list) list;
}

let register_community defs name members =
  if not (List.mem_assoc name defs.communities) then
    defs.communities <- (name, members) :: defs.communities

let filters_of defs (l : Prefix_list.t) =
  match List.assoc_opt l.name defs.filters with
  | Some runs -> runs
  | None ->
      let runs = route_filter_runs l in
      defs.filters <- (l.name, runs) :: defs.filters;
      runs

let add_from b depth (c : Config_ir.t) defs = function
  | Route_map.Match_prefix_list n -> (
      match Config_ir.find_prefix_list c n with
      | Some l when not (is_exact_permit_list l) ->
          List.iter
            (fun (base, run) ->
              open_ b depth "route-filter ";
              Prefix.add_to_buffer b base;
              chr b ' ';
              add_modifier b base run;
              leaf b)
            (filters_of defs l)
      | Some _ | None ->
          word_leaf b depth "prefix-list" n)
  | Route_map.Match_community_list n -> (
      open_ b depth "community";
      match Config_ir.find_community_list c n with
      | Some { Community_list.entries = [ e ]; _ } when e.Community_list.action = Action.Permit
        ->
          register_community defs n e.Community_list.communities;
          arg b n;
          leaf b
      | Some l ->
          (* OR across entries: one named community per entry, all cited
             in a single bracketed from clause. *)
          List.iteri
            (fun i (e : Community_list.entry) ->
              let name = n ^ "-" ^ string_of_int (i + 1) in
              register_community defs name e.Community_list.communities;
              arg b name)
            l.Community_list.entries;
          leaf b
      | None ->
          arg b n;
          leaf b)
  | Route_map.Match_as_path n ->
      word_leaf b depth "as-path" n
  | Route_map.Match_source_protocol s ->
      open_ b depth "protocol ";
      str b (Route.source_to_string s);
      leaf b
  | Route_map.Match_med m ->
      int_leaf b depth "metric" m
  | Route_map.Match_tag t ->
      int_leaf b depth "tag" t

let add_then b depth defs = function
  | Route_map.Set_med m ->
      int_leaf b depth "metric" m
  | Route_map.Set_local_pref p ->
      int_leaf b depth "local-preference" p
  | Route_map.Set_community { communities; additive } ->
      let name = community_def_name communities in
      register_community defs name communities;
      open_ b depth (if additive then "community add" else "community set");
      arg b name;
      leaf b
  | Route_map.Set_community_delete n ->
      word_leaf b depth "community delete" n
  | Route_map.Set_next_hop a ->
      open_ b depth "next-hop ";
      Ipv4.add_to_buffer b a;
      leaf b
  | Route_map.Set_as_path_prepend asns ->
      (* The AS numbers are one keyword, quoted when there are several. *)
      open_ b depth "as-path-prepend ";
      let several = List.compare_length_with asns 1 > 0 in
      if several then chr b '"';
      List.iteri
        (fun i a ->
          if i > 0 then chr b ' ';
          int b a)
        asns;
      if several then chr b '"';
      leaf b

let add_term b depth c defs (e : Route_map.entry) =
  open_ b depth "term t";
  int b e.seq;
  block b depth (fun depth ->
      if e.matches <> [] then (
        (* A ranged list can compile to no route filter at all; a from
           clause with nothing in it is left out. *)
        let mark = Buffer.length b in
        open_ b depth "from";
        str b " {\n";
        let body = Buffer.length b in
        List.iter (add_from b (depth + 1) c defs) e.matches;
        if Buffer.length b = body then Buffer.truncate b mark
        else (
          pad b depth;
          str b "}\n"));
      open_ b depth "then";
      block b depth (fun depth ->
          List.iter (add_then b depth defs) e.sets;
          kw_leaf b depth (match e.action with Action.Permit -> "accept" | Action.Deny -> "reject")))

let add_policy_statement b depth c defs (m : Route_map.t) =
  open_ b depth "policy-statement";
  arg b m.name;
  block b depth (fun depth -> List.iter (add_term b depth c defs) m.entries)

(* ------------------------------------------------------------------ *)
(* Top-level sections                                                  *)
(* ------------------------------------------------------------------ *)

let add_system b (c : Config_ir.t) =
  open_ b 0 "system";
  block b 0 (fun depth ->
      word_leaf b depth "host-name" c.hostname)

let add_firewall b (c : Config_ir.t) =
  let term depth (e : Acl.entry) =
    open_ b depth "term t";
    int b e.seq;
    block b depth (fun depth ->
        let from_src = not (Prefix.equal e.src Prefix.default)
        and from_dst = not (Prefix.equal e.dst Prefix.default) in
        if e.proto <> Acl.Any_proto || from_src || from_dst || e.dst_port <> Acl.Any_port
        then (
          open_ b depth "from";
          block b depth (fun depth ->
              (match e.proto with
              | Acl.Any_proto -> ()
              | Acl.Proto p ->
                  open_ b depth "protocol ";
                  str b (Packet.proto_to_string p);
                  leaf b);
              if from_src then (
                open_ b depth "source-address ";
                Prefix.add_to_buffer b e.src;
                leaf b);
              if from_dst then (
                open_ b depth "destination-address ";
                Prefix.add_to_buffer b e.dst;
                leaf b);
              match e.dst_port with
              | Acl.Any_port -> ()
              | Acl.Eq p ->
                  int_leaf b depth "destination-port" p
              | Acl.Port_range (lo, hi) ->
                  open_ b depth "destination-port ";
                  int b lo;
                  chr b '-';
                  int b hi;
                  leaf b));
        open_ b depth "then";
        block b depth (fun depth ->
            kw_leaf b depth
              (match e.action with Action.Permit -> "accept" | Action.Deny -> "discard")))
  in
  if c.acls <> [] then (
    open_ b 0 "firewall";
    block b 0 (fun depth ->
        open_ b depth "family inet";
        block b depth (fun depth ->
            List.iter
              (fun (a : Acl.t) ->
                open_ b depth "filter";
                arg b a.name;
                block b depth (fun depth -> List.iter (term depth) a.entries))
              c.acls)))

let add_interfaces b (c : Config_ir.t) =
  let iface depth (i : Config_ir.interface) =
    let phys = Iface.junos_name i.iface in
    let phys =
      match String.index_opt phys '.' with
      | Some idx -> String.sub phys 0 idx
      | None -> phys
    in
    pad b depth;
    word b phys;
    block b depth (fun depth ->
        Option.iter (word_leaf b depth "description") i.description;
        if i.shutdown then kw_leaf b depth "disable";
        open_ b depth "unit 0";
        block b depth (fun depth ->
            if i.address <> None || i.acl_in <> None || i.acl_out <> None then (
              open_ b depth "family inet";
              block b depth (fun depth ->
                  if i.acl_in <> None || i.acl_out <> None then (
                    open_ b depth "filter";
                    block b depth (fun depth ->
                        Option.iter (word_leaf b depth "input") i.acl_in;
                        Option.iter (word_leaf b depth "output") i.acl_out));
                  Option.iter
                    (fun (a, len) ->
                      open_ b depth "address ";
                      Ipv4.add_to_buffer b a;
                      chr b '/';
                      int b len;
                      leaf b)
                    i.address))))
  in
  if c.interfaces <> [] then (
    open_ b 0 "interfaces";
    block b 0 (fun depth -> List.iter (iface depth) c.interfaces))

let add_routing_options b (c : Config_ir.t) =
  let bgp_body =
    match c.bgp with
    | Some bgp -> bgp.router_id <> None || bgp.asn > 0 || bgp.networks <> []
    | None -> false
  in
  if c.statics <> [] || bgp_body then (
    open_ b 0 "routing-options";
    block b 0 (fun depth ->
        if c.statics <> [] then (
          open_ b depth "static";
          block b depth (fun depth ->
              List.iter
                (fun (r : Config_ir.static_route) ->
                  open_ b depth "route ";
                  Prefix.add_to_buffer b r.destination;
                  block b depth (fun depth ->
                      open_ b depth "next-hop ";
                      Ipv4.add_to_buffer b r.next_hop;
                      leaf b))
                c.statics));
        Option.iter
          (fun (bgp : Config_ir.bgp) ->
            Option.iter
              (fun r ->
                open_ b depth "router-id ";
                Ipv4.add_to_buffer b r;
                leaf b)
              bgp.router_id;
            if bgp.asn > 0 then (
              int_leaf b depth "autonomous-system" bgp.asn);
            if bgp.networks <> [] then (
              open_ b depth "announce";
              block b depth (fun depth ->
                  List.iter
                    (fun p ->
                      pad b depth;
                      Prefix.add_to_buffer b p;
                      leaf b)
                    bgp.networks)))
          c.bgp))

let add_bgp b depth (bgp : Config_ir.bgp) =
  let group depth (n : Config_ir.neighbor) =
    open_ b depth "group PEER-";
    let a = Ipv4.to_int n.addr in
    int b ((a lsr 24) land 0xFF);
    chr b '-';
    int b ((a lsr 16) land 0xFF);
    chr b '-';
    int b ((a lsr 8) land 0xFF);
    chr b '-';
    int b (a land 0xFF);
    block b depth (fun depth ->
        kw_leaf b depth "type external";
        open_ b depth "neighbor ";
        Ipv4.add_to_buffer b n.addr;
        block b depth (fun depth ->
            if n.remote_as > 0 then int_leaf b depth "peer-as" n.remote_as;
            Option.iter (int_leaf b depth "local-as") n.local_as;
            Option.iter (word_leaf b depth "description") n.description;
            Option.iter (word_leaf b depth "import") n.import_policy;
            Option.iter (word_leaf b depth "export") n.export_policy))
  in
  open_ b depth "bgp";
  block b depth (fun depth -> List.iter (group depth) bgp.neighbors)

let ospf_areas (o : Config_ir.ospf) =
  List.sort_uniq Int.compare
    (List.map (fun (oi : Config_ir.ospf_interface) -> oi.area) o.interfaces)

let add_ospf b depth (o : Config_ir.ospf) =
  let area depth a =
    open_ b depth "area 0.0.0.";
    int b a;
    block b depth (fun depth ->
        List.iter
          (fun (oi : Config_ir.ospf_interface) ->
            if oi.area = a then (
              open_ b depth "interface";
              arg b (Iface.junos_name oi.iface);
              block b depth (fun depth ->
                  Option.iter (int_leaf b depth "metric") oi.cost;
                  if oi.passive then kw_leaf b depth "passive")))
          o.interfaces)
  in
  open_ b depth "ospf";
  block b depth (fun depth -> List.iter (area depth) (ospf_areas o))

let add_protocols b (c : Config_ir.t) =
  let ospf =
    match c.ospf with Some o when o.interfaces <> [] -> Some o | _ -> None
  in
  if c.bgp <> None || ospf <> None then (
    open_ b 0 "protocols";
    block b 0 (fun depth ->
        Option.iter (add_bgp b depth) c.bgp;
        Option.iter (add_ospf b depth) ospf))

let add_policy_options b (c : Config_ir.t) =
  let defs = { communities = []; filters = [] } in
  (* Community lists named in delete actions are defined first. *)
  List.iter
    (fun (m : Route_map.t) ->
      List.iter
        (fun (e : Route_map.entry) ->
          List.iter
            (function
              | Route_map.Set_community_delete n -> (
                  match Config_ir.find_community_list c n with
                  | Some { Community_list.entries = { Community_list.communities; _ } :: _; _ } ->
                      register_community defs n communities
                  | _ -> ())
              | _ -> ())
            e.sets)
        m.entries)
    c.route_maps;
  (* The statements go to their own buffer first: printing them collects
     the community definitions, which must precede them. *)
  let statements = Buffer.create 4096 in
  List.iter (add_policy_statement statements 1 c defs) c.route_maps;
  let exact_lists = List.filter is_exact_permit_list c.prefix_lists in
  let as_paths =
    List.filter_map
      (fun (l : As_path_list.t) ->
        List.find_opt (fun (e : As_path_list.entry) -> e.action = Action.Permit) l.entries
        |> Option.map (fun (e : As_path_list.entry) -> (l.name, e.regex)))
      c.as_path_lists
  in
  if exact_lists <> [] || defs.communities <> [] || as_paths <> [] || c.route_maps <> []
  then (
    open_ b 0 "policy-options";
    block b 0 (fun depth ->
        List.iter
          (fun (l : Prefix_list.t) ->
            open_ b depth "prefix-list";
            arg b l.name;
            block b depth (fun depth ->
                List.iter
                  (fun (e : Prefix_list.entry) ->
                    pad b depth;
                    Prefix.add_to_buffer b (Prefix_range.base e.range);
                    leaf b)
                  l.entries))
          exact_lists;
        List.iter
          (fun (name, members) ->
            open_ b depth "community";
            arg b name;
            str b " members";
            List.iter
              (fun m ->
                chr b ' ';
                Community.add_to_buffer b m)
              members;
            leaf b)
          (List.rev defs.communities);
        List.iter
          (fun (name, regex) ->
            open_ b depth "as-path";
            arg b name;
            arg b regex;
            leaf b)
          as_paths;
        Buffer.add_buffer b statements))

let print (c : Config_ir.t) =
  let b = Buffer.create 8192 in
  (match c.bgp with
  | Some { redistributions = _ :: _; _ } ->
      str b
        "# note: redistributions are not expressible in this dialect; fold them into \
         export policies with Translate.of_cisco_ir\n"
  | _ -> ());
  add_system b c;
  add_interfaces b c;
  add_routing_options b c;
  add_firewall b c;
  add_protocols b c;
  add_policy_options b c;
  Buffer.contents b
