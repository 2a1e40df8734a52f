open Netcore
open Policy

(* Parsing state: the configuration is assembled into mutable accumulators
   and frozen into a Config_ir.t at the end. A context tracks which block
   ("interface", "router bgp", ...) indented lines belong to. *)

type rm_key = { rm_name : string; rm_seq : int }

(* One route-map stanza as its lines arrive: each [match]/[set] line conses
   onto the open stanza, and [assemble] reverses each list once. *)
type stanza = {
  key : rm_key;
  action : Action.t;
  mutable matches : Route_map.match_cond list;  (* reversed *)
  mutable sets : Route_map.set_action list;  (* reversed *)
}

type state = {
  mutable hostname : string;
  mutable interfaces : Config_ir.interface list;  (* in order *)
  mutable pl_entries : (string * Prefix_list.entry) list;  (* reversed *)
  mutable cl_entries : (string * Community_list.entry) list;  (* reversed *)
  mutable al_entries : (string * As_path_list.entry) list;  (* reversed *)
  mutable rm_entries : stanza list;  (* reversed *)
  rm_keys : (rm_key, unit) Hashtbl.t;  (* stanza headers seen, for duplicates *)
  mutable acl_entries : (string * Acl.entry) list;  (* in order *)
  mutable statics : Config_ir.static_route list;  (* in order *)
  mutable bgp : Config_ir.bgp option;
  mutable ospf : Config_ir.ospf option;
  mutable ospf_costs : (Iface.t * int) list;  (* from interface blocks, reversed *)
  mutable diags : Diag.t list;  (* reversed *)
}

type context =
  | Top
  | In_interface of Iface.t
  | In_bgp
  | In_ospf
  | In_route_map of stanza
  | In_acl of string

let fresh () =
  {
    hostname = "router";
    interfaces = [];
    pl_entries = [];
    cl_entries = [];
    al_entries = [];
    rm_entries = [];
    rm_keys = Hashtbl.create 16;
    acl_entries = [];
    statics = [];
    bgp = None;
    ospf = None;
    ospf_costs = [];
    diags = [];
  }

let warn st ~line fmt = Printf.ksprintf (fun s -> st.diags <- Diag.warning ~line s :: st.diags) fmt
let err st ~line fmt = Printf.ksprintf (fun s -> st.diags <- Diag.error ~line s :: st.diags) fmt

let is_trimmed = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

let tokens line =
  let n = String.length line in
  let rec first i = if i < n && is_trimmed line.[i] then first (i + 1) else i in
  let lo = first 0 in
  let rec last j = if j > lo && is_trimmed line.[j - 1] then last (j - 1) else j in
  (* Words are collected right to left, so the list needs no reversal. *)
  let rec words acc j =
    if j <= lo then acc
    else if line.[j - 1] = ' ' then words acc (j - 1)
    else
      let rec start k = if k > lo && line.[k - 1] <> ' ' then start (k - 1) else k in
      let k = start (j - 1) in
      words (String.sub line k (j - k) :: acc) k
  in
  words [] (last n)

(* The CLI keywords the paper's IIP bans: they belong to an interactive
   session, not a .cfg file. *)
let cli_keywords =
  [ "exit"; "end"; "configure"; "conf"; "write"; "enable"; "copy"; "show" ]

let is_cli_keyword = function
  | [] -> false
  | w :: _ -> List.mem (String.lowercase_ascii w) cli_keywords

(* ------------------------------------------------------------------ *)
(* Field updates                                                       *)
(* ------------------------------------------------------------------ *)

let ensure_bgp st asn =
  match st.bgp with
  | Some b -> b
  | None ->
      let b =
        {
          Config_ir.asn;
          router_id = None;
          networks = [];
          neighbors = [];
          redistributions = [];
        }
      in
      st.bgp <- Some b;
      b

let ensure_ospf st pid =
  match st.ospf with
  | Some o -> o
  | None ->
      let o =
        {
          Config_ir.process_id = pid;
          router_id = None;
          networks = [];
          interfaces = [];
          redistributions = [];
        }
      in
      st.ospf <- Some o;
      o

let update_bgp st f = match st.bgp with Some b -> st.bgp <- Some (f b) | None -> ()
let update_ospf st f = match st.ospf with Some o -> st.ospf <- Some (f o) | None -> ()

let update_neighbor st addr ~create f =
  update_bgp st (fun b ->
      match Config_ir.find_neighbor b addr with
      | Some _ ->
          {
            b with
            Config_ir.neighbors =
              List.map
                (fun (x : Config_ir.neighbor) -> if Ipv4.equal x.addr addr then f x else x)
                b.neighbors;
          }
      | None ->
          if create then
            { b with Config_ir.neighbors = b.neighbors @ [ f (Config_ir.neighbor addr ~remote_as:(-1) ~send_community:false) ] }
          else b)

(* ------------------------------------------------------------------ *)
(* Line handlers                                                       *)
(* ------------------------------------------------------------------ *)

let parse_source_protocol = function
  | "bgp" -> Some Route.Bgp
  | "ospf" -> Some Route.Ospf
  | "connected" -> Some Route.Connected
  | "static" -> Some Route.Static
  | _ -> None

let parse_redistribute st ~line rest =
  (* redistribute <proto> [<pid>] [route-map NAME] *)
  let proto, rest =
    match rest with
    | p :: tl -> (parse_source_protocol p, tl)
    | [] -> (None, [])
  in
  match proto with
  | None ->
      warn st ~line "unsupported redistribute source protocol";
      None
  | Some proto -> (
      let rest = match rest with pid :: tl when int_of_string_opt pid <> None -> tl | l -> l in
      match rest with
      | [] -> Some { Config_ir.from_protocol = proto; policy = None }
      | [ "route-map"; name ] -> Some { Config_ir.from_protocol = proto; policy = Some name }
      | _ ->
          warn st ~line "malformed redistribute statement";
          None)

let handle_interface_line st ~line iface toks =
  match toks with
  | [ "ip"; "address"; a; m ] -> (
      match (Ipv4.of_string a, Ipv4.of_string m) with
      | Some addr, Some mask -> (
          match Netmask.len_of_mask mask with
          | Some len ->
              st.interfaces <-
                List.map
                  (fun (i : Config_ir.interface) ->
                    if Iface.equal i.iface iface then { i with Config_ir.address = Some (addr, len) }
                    else i)
                  st.interfaces
          | None -> err st ~line "'%s' is not a contiguous netmask" m)
      | _ -> err st ~line "malformed ip address statement")
  | "description" :: rest ->
      let d = String.concat " " rest in
      st.interfaces <-
        List.map
          (fun (i : Config_ir.interface) ->
            if Iface.equal i.iface iface then { i with Config_ir.description = Some d } else i)
          st.interfaces
  | [ "shutdown" ] ->
      st.interfaces <-
        List.map
          (fun (i : Config_ir.interface) ->
            if Iface.equal i.iface iface then { i with Config_ir.shutdown = true } else i)
          st.interfaces
  | [ "no"; "shutdown" ] -> ()
  | [ "ip"; "access-group"; name; dir ] -> (
      let set f =
        st.interfaces <-
          List.map
            (fun (i : Config_ir.interface) ->
              if Iface.equal i.iface iface then f i else i)
            st.interfaces
      in
      match dir with
      | "in" -> set (fun i -> { i with Config_ir.acl_in = Some name })
      | "out" -> set (fun i -> { i with Config_ir.acl_out = Some name })
      | _ -> err st ~line "access-group direction must be 'in' or 'out'")
  | [ "ip"; "ospf"; "cost"; c ] -> (
      match int_of_string_opt c with
      | Some c when c >= 0 -> st.ospf_costs <- (iface, c) :: st.ospf_costs
      | _ -> err st ~line "invalid ospf cost")
  | _ ->
      err st ~line "unrecognized interface statement: '%s'" (String.concat " " toks)

let handle_bgp_line st ~line toks =
  match toks with
  | [ "bgp"; "router-id"; r ] -> (
      match Ipv4.of_string r with
      | Some rid -> update_bgp st (fun b -> { b with Config_ir.router_id = Some rid })
      | None -> err st ~line "invalid router id '%s'" r)
  | [ "network"; a; "mask"; m ] -> (
      match (Ipv4.of_string a, Option.bind (Ipv4.of_string m) Netmask.len_of_mask) with
      | Some addr, Some len ->
          update_bgp st (fun b ->
              { b with Config_ir.networks = b.networks @ [ Prefix.make addr len ] })
      | _ -> err st ~line "malformed network statement")
  | [ "network"; a ] -> (
      match Ipv4.of_string a with
      | Some addr ->
          let len = Netmask.classful_len addr in
          warn st ~line
            "network statement without mask: assuming classful /%d for %s" len a;
          update_bgp st (fun b ->
              { b with Config_ir.networks = b.networks @ [ Prefix.make addr len ] })
      | None -> err st ~line "malformed network statement")
  | "neighbor" :: addr :: rest -> (
      match Ipv4.of_string addr with
      | None -> err st ~line "invalid neighbor address '%s'" addr
      | Some addr -> (
          match rest with
          | [ "remote-as"; asn ] -> (
              match int_of_string_opt asn with
              | Some asn when asn > 0 ->
                  update_neighbor st addr ~create:true (fun n ->
                      { n with Config_ir.remote_as = asn })
              | _ -> err st ~line "invalid remote AS number")
          | [ "local-as"; asn ] -> (
              match int_of_string_opt asn with
              | Some asn when asn > 0 ->
                  update_neighbor st addr ~create:true (fun n ->
                      { n with Config_ir.local_as = Some asn })
              | _ -> err st ~line "invalid local AS number")
          | "description" :: d ->
              update_neighbor st addr ~create:true (fun n ->
                  { n with Config_ir.description = Some (String.concat " " d) })
          | [ "send-community" ] ->
              update_neighbor st addr ~create:true (fun n ->
                  { n with Config_ir.send_community = true })
          | [ "next-hop-self" ] ->
              update_neighbor st addr ~create:true (fun n ->
                  { n with Config_ir.next_hop_self = true })
          | [ "route-map"; name; "in" ] ->
              update_neighbor st addr ~create:true (fun n ->
                  { n with Config_ir.import_policy = Some name })
          | [ "route-map"; name; "out" ] ->
              update_neighbor st addr ~create:true (fun n ->
                  { n with Config_ir.export_policy = Some name })
          | _ ->
              err st ~line "unrecognized neighbor statement: '%s'" (String.concat " " rest)))
  | "redistribute" :: rest -> (
      match parse_redistribute st ~line rest with
      | Some r ->
          update_bgp st (fun b ->
              { b with Config_ir.redistributions = b.redistributions @ [ r ] })
      | None -> ())
  | [ "no"; "auto-summary" ] | [ "no"; "synchronization" ] -> ()
  | _ -> err st ~line "unrecognized router bgp statement: '%s'" (String.concat " " toks)

let set_ospf_iface st iface f =
  update_ospf st (fun o ->
      let exists =
        List.exists
          (fun (oi : Config_ir.ospf_interface) -> Iface.equal oi.iface iface)
          o.interfaces
      in
      let interfaces =
        if exists then
          List.map
            (fun (oi : Config_ir.ospf_interface) ->
              if Iface.equal oi.iface iface then f oi else oi)
            o.interfaces
        else
          o.interfaces
          @ [ f { Config_ir.iface; cost = None; passive = false; area = 0 } ]
      in
      { o with Config_ir.interfaces = interfaces })

let handle_ospf_line st ~line toks =
  match toks with
  | [ "router-id"; r ] -> (
      match Ipv4.of_string r with
      | Some rid -> update_ospf st (fun o -> { o with Config_ir.router_id = Some rid })
      | None -> err st ~line "invalid router id '%s'" r)
  | [ "network"; a; w; "area"; area ] -> (
      match
        ( Ipv4.of_string a,
          Option.bind (Ipv4.of_string w) Netmask.len_of_wildcard,
          int_of_string_opt area )
      with
      | Some addr, Some len, Some area ->
          update_ospf st (fun o ->
              { o with Config_ir.networks = o.networks @ [ (Prefix.make addr len, area) ] })
      | _ -> err st ~line "malformed ospf network statement")
  | [ "passive-interface"; ifname ] -> (
      match Iface.of_cisco ifname with
      | Some iface -> set_ospf_iface st iface (fun oi -> { oi with Config_ir.passive = true })
      | None -> err st ~line "unknown interface '%s'" ifname)
  | "redistribute" :: rest -> (
      match parse_redistribute st ~line rest with
      | Some r ->
          update_ospf st (fun o ->
              { o with Config_ir.redistributions = o.redistributions @ [ r ] })
      | None -> ())
  | _ -> err st ~line "unrecognized router ospf statement: '%s'" (String.concat " " toks)

let handle_route_map_line st ~line stanza toks =
  let add_match m = stanza.matches <- m :: stanza.matches in
  let add_set s = stanza.sets <- s :: stanza.sets in
  match toks with
  | [ "match"; "ip"; "address"; "prefix-list"; name ] ->
      add_match (Route_map.Match_prefix_list name)
  | "match" :: "ip" :: "address" :: "prefix-list" :: _ ->
      err st ~line "only one prefix-list per match line is supported"
  | [ "match"; "community"; arg ] -> (
      (* The notorious GPT-4 mistake: a literal community where a
         community-list reference is required. *)
      match Community.of_string arg with
      | Some _ ->
          err st ~line
            "'match community %s' is invalid: 'match community' takes a \
             community-list; define 'ip community-list standard <name> permit \
             %s' and match the list by name"
            arg arg
      | None -> add_match (Route_map.Match_community_list arg))
  | "match" :: "community" :: _ ->
      err st ~line "only one community-list per match line is supported"
  | [ "match"; "as-path"; name ] -> add_match (Route_map.Match_as_path name)
  | [ "match"; "source-protocol"; p ] -> (
      match parse_source_protocol p with
      | Some s -> add_match (Route_map.Match_source_protocol s)
      | None -> err st ~line "unknown source protocol '%s'" p)
  | [ "match"; "metric"; m ] -> (
      match int_of_string_opt m with
      | Some m -> add_match (Route_map.Match_med m)
      | None -> err st ~line "invalid metric")
  | [ "match"; "tag"; t ] -> (
      match int_of_string_opt t with
      | Some t -> add_match (Route_map.Match_tag t)
      | None -> err st ~line "invalid tag")
  | [ "set"; "metric"; m ] -> (
      match int_of_string_opt m with
      | Some m -> add_set (Route_map.Set_med m)
      | None -> err st ~line "invalid metric")
  | [ "set"; "local-preference"; p ] -> (
      match int_of_string_opt p with
      | Some p -> add_set (Route_map.Set_local_pref p)
      | None -> err st ~line "invalid local-preference")
  | "set" :: "community" :: rest -> (
      let additive, comm_toks =
        match List.rev rest with
        | "additive" :: tl -> (true, List.rev tl)
        | _ -> (false, rest)
      in
      let comms = List.map Community.of_string comm_toks in
      match (comm_toks, List.for_all Option.is_some comms) with
      | [], _ -> err st ~line "set community requires at least one community"
      | _, false -> err st ~line "invalid community value in set community"
      | _, true ->
          add_set
            (Route_map.Set_community
               { communities = List.filter_map Fun.id comms; additive }))
  | [ "set"; "comm-list"; name; "delete" ] -> add_set (Route_map.Set_community_delete name)
  | [ "set"; "ip"; "next-hop"; a ] -> (
      match Ipv4.of_string a with
      | Some a -> add_set (Route_map.Set_next_hop a)
      | None -> err st ~line "invalid next-hop address")
  | "set" :: "as-path" :: "prepend" :: asns -> (
      let parsed = List.map int_of_string_opt asns in
      match (asns, List.for_all Option.is_some parsed) with
      | [], _ -> err st ~line "as-path prepend requires at least one AS"
      | _, false -> err st ~line "invalid AS number in prepend"
      | _, true -> add_set (Route_map.Set_as_path_prepend (List.filter_map Fun.id parsed)))
  | _ -> err st ~line "unrecognized route-map statement: '%s'" (String.concat " " toks)

let parse_addr_spec st ~line toks =
  (* any | host A | A WILDCARD; returns the prefix and remaining tokens. *)
  match toks with
  | "any" :: rest -> Some (Prefix.default, rest)
  | "host" :: a :: rest -> (
      match Ipv4.of_string a with
      | Some a -> Some (Prefix.host a, rest)
      | None ->
          err st ~line "invalid host address '%s'" a;
          None)
  | a :: w :: rest -> (
      match (Ipv4.of_string a, Option.bind (Ipv4.of_string w) Netmask.len_of_wildcard) with
      | Some a, Some len -> Some (Prefix.make a len, rest)
      | _ ->
          err st ~line "invalid address/wildcard pair '%s %s'" a w;
          None)
  | _ ->
      err st ~line "missing address specification";
      None

let handle_acl_line st ~line name toks =
  let add entry = st.acl_entries <- st.acl_entries @ [ (name, entry) ] in
  match toks with
  | action :: proto :: rest -> (
      match Action.of_string action with
      | None -> err st ~line "access-list entries start with permit or deny"
      | Some action -> (
          let proto_match =
            if proto = "ip" then Some Acl.Any_proto
            else Option.map (fun p -> Acl.Proto p) (Packet.proto_of_string proto)
          in
          match proto_match with
          | None -> err st ~line "unknown protocol '%s'" proto
          | Some proto -> (
              match parse_addr_spec st ~line rest with
              | None -> ()
              | Some (src, rest) -> (
                  match parse_addr_spec st ~line rest with
                  | None -> ()
                  | Some (dst, rest) -> (
                      let seq = (List.length (List.filter (fun (n, _) -> n = name) st.acl_entries) + 1) * 10 in
                      match rest with
                      | [] -> add (Acl.entry ~action ~proto ~src ~dst seq)
                      | [ "eq"; port ] -> (
                          match int_of_string_opt port with
                          | Some p when p >= 0 && p <= 65535 ->
                              add (Acl.entry ~action ~proto ~src ~dst ~dst_port:(Acl.Eq p) seq)
                          | _ -> err st ~line "invalid port '%s'" port)
                      | [ "range"; lo; hi ] -> (
                          match (int_of_string_opt lo, int_of_string_opt hi) with
                          | Some lo, Some hi when 0 <= lo && lo <= hi && hi <= 65535 ->
                              add
                                (Acl.entry ~action ~proto ~src ~dst
                                   ~dst_port:(Acl.Port_range (lo, hi)) seq)
                          | _ -> err st ~line "invalid port range")
                      | _ ->
                          err st ~line "unrecognized access-list entry suffix: '%s'"
                            (String.concat " " rest))))))
  | _ -> err st ~line "malformed access-list entry"

(* ------------------------------------------------------------------ *)
(* Top-level dispatch                                                  *)
(* ------------------------------------------------------------------ *)

let handle_prefix_list st ~line toks =
  (* ip prefix-list NAME seq N permit|deny P [ge G] [le L] *)
  match toks with
  | name :: "seq" :: seq :: action :: prefix :: bounds -> (
      match (int_of_string_opt seq, Action.of_string action, Prefix.of_string prefix) with
      | Some seq, Some action, Some base -> (
          let range =
            match bounds with
            | [] -> Some (Prefix_range.exact base)
            | [ "ge"; g ] ->
                Option.bind (int_of_string_opt g) (fun g ->
                    if g >= Prefix.len base && g <= 32 then Some (Prefix_range.ge base g)
                    else None)
            | [ "le"; l ] ->
                Option.bind (int_of_string_opt l) (fun l ->
                    if l >= Prefix.len base && l <= 32 then Some (Prefix_range.le base l)
                    else None)
            | [ "ge"; g; "le"; l ] -> (
                match (int_of_string_opt g, int_of_string_opt l) with
                | Some g, Some l when Prefix.len base <= g && g <= l && l <= 32 ->
                    Some (Prefix_range.make base ~ge:g ~le:l)
                | _ -> None)
            | _ -> None
          in
          match range with
          | Some range ->
              st.pl_entries <- (name, Prefix_list.entry ~action seq range) :: st.pl_entries
          | None -> err st ~line "invalid prefix-list bounds")
      | _ -> err st ~line "malformed ip prefix-list statement")
  | name :: action :: prefix :: _
    when Action.of_string action <> None && Prefix.of_string prefix <> None ->
      err st ~line
        "ip prefix-list %s: missing 'seq <n>' before the action" name
  | _ -> err st ~line "malformed ip prefix-list statement"

let looks_like_regex s =
  String.exists (fun c -> List.mem c [ '.'; '*'; '+'; '['; '^'; '$'; '_' ]) s

let handle_community_list st ~line toks =
  (* ip community-list standard NAME permit c1 c2... (also numbered lists) *)
  let parse name action comms =
    match Action.of_string action with
    | None -> err st ~line "malformed ip community-list statement"
    | Some action -> (
        let parsed = List.map Community.of_string comms in
        match (comms, List.for_all Option.is_some parsed) with
        | [], _ -> err st ~line "community-list entry needs at least one community"
        | _, false ->
            if List.exists looks_like_regex comms then
              err st ~line
                "'ip community-list standard %s %s %s' is wrong syntax: standard \
                 community lists take literal communities (asn:value), not regular \
                 expressions; use an expanded community list for regex matching"
                name (Action.to_string action) (String.concat " " comms)
            else err st ~line "invalid community value in community-list"
        | _, true ->
            st.cl_entries <-
              (name, Community_list.entry ~action (List.filter_map Fun.id parsed))
              :: st.cl_entries)
  in
  match toks with
  | "standard" :: name :: action :: comms -> parse name action comms
  | "expanded" :: name :: _ ->
      err st ~line "expanded community-list %s: regex community lists are not supported" name
  | name :: action :: comms when Action.of_string action <> None -> parse name action comms
  | _ -> err st ~line "malformed ip community-list statement"

let handle_as_path_list st ~line toks =
  (* ip as-path access-list NAME permit REGEX *)
  match toks with
  | name :: action :: regex_parts when regex_parts <> [] -> (
      match Action.of_string action with
      | Some action ->
          let regex = String.concat " " regex_parts in
          st.al_entries <- (name, As_path_list.entry ~action regex) :: st.al_entries
      | None -> err st ~line "malformed as-path access-list statement")
  | _ -> err st ~line "malformed as-path access-list statement"

let dispatch_top st ~line toks : context =
  match toks with
  | [] -> Top
  | [ "hostname"; h ] ->
      st.hostname <- h;
      Top
  | "interface" :: [ ifname ] -> (
      match Iface.of_cisco ifname with
      | Some iface ->
          st.interfaces <- st.interfaces @ [ Config_ir.interface iface ];
          In_interface iface
      | None ->
          err st ~line "unknown interface name '%s'" ifname;
          Top)
  | [ "router"; "bgp"; asn ] -> (
      match int_of_string_opt asn with
      | Some asn when asn > 0 ->
          ignore (ensure_bgp st asn);
          In_bgp
      | _ ->
          err st ~line "invalid BGP AS number '%s'" asn;
          Top)
  | [ "router"; "ospf"; pid ] -> (
      match int_of_string_opt pid with
      | Some pid when pid > 0 ->
          ignore (ensure_ospf st pid);
          In_ospf
      | _ ->
          err st ~line "invalid OSPF process id '%s'" pid;
          Top)
  | [ "ip"; "access-list"; "extended"; name ] -> In_acl name
  | [ "ip"; "access-list"; "standard"; name ] ->
      err st ~line
        "standard access-list %s: only extended access lists are supported" name;
      Top
  | [ "ip"; "route"; dest; mask; nh ] ->
      (match
         ( Ipv4.of_string dest,
           Option.bind (Ipv4.of_string mask) Netmask.len_of_mask,
           Ipv4.of_string nh )
       with
      | Some dest, Some len, Some next_hop ->
          st.statics <-
            st.statics
            @ [ { Config_ir.destination = Prefix.make dest len; next_hop } ]
      | _ -> err st ~line "malformed ip route statement");
      Top
  | "ip" :: "prefix-list" :: rest ->
      handle_prefix_list st ~line rest;
      Top
  | "ip" :: "community-list" :: rest ->
      handle_community_list st ~line rest;
      Top
  | "ip" :: "as-path" :: "access-list" :: rest ->
      handle_as_path_list st ~line rest;
      Top
  | [ "route-map"; name; action; seq ] -> (
      match (Action.of_string action, int_of_string_opt seq) with
      | Some action, Some seq ->
          let key = { rm_name = name; rm_seq = seq } in
          if Hashtbl.mem st.rm_keys key then (
            err st ~line "duplicate route-map stanza %s %d" name seq;
            Top)
          else
            let stanza = { key; action; matches = []; sets = [] } in
            Hashtbl.add st.rm_keys key ();
            st.rm_entries <- stanza :: st.rm_entries;
            In_route_map stanza
      | _ ->
          err st ~line "malformed route-map header";
          Top)
  | [ "route-map"; name ] | [ "route-map"; name; _ ] ->
      err st ~line "route-map %s: header needs an action (permit|deny) and a sequence number" name;
      Top
  | [ "ip"; "routing" ] | [ "ip"; "subnet-zero" ] | [ "ip"; "classless" ] ->
      warn st ~line "'%s' is not needed in this configuration" (String.concat " " toks);
      Top
  | "neighbor" :: _ | "network" :: _ ->
      err st ~line
        "'%s' is only valid inside a 'router bgp' or 'router ospf' block; move it \
         under the routing process"
        (String.concat " " toks);
      Top
  | ("match" | "set") :: _ ->
      err st ~line "'%s' is only valid inside a route-map stanza" (String.concat " " toks);
      Top
  | _ when is_cli_keyword toks ->
      err st ~line
        "'%s' is an interactive CLI command, not a configuration statement; remove it"
        (String.concat " " toks);
      Top
  | _ ->
      err st ~line "unrecognized statement: '%s'" (String.concat " " toks);
      Top

(* ------------------------------------------------------------------ *)
(* Assembly                                                            *)
(* ------------------------------------------------------------------ *)

let group_by_name pairs =
  (* Preserve first-appearance order of names and entry order per name. *)
  let groups = Hashtbl.create 16 in
  let names =
    List.fold_left
      (fun names (n, e) ->
        match Hashtbl.find_opt groups n with
        | Some es ->
            Hashtbl.replace groups n (e :: es);
            names
        | None ->
            Hashtbl.add groups n [ e ];
            n :: names)
      [] pairs
  in
  List.rev_map (fun n -> (n, List.rev (Hashtbl.find groups n))) names

let assemble st =
  let pl_pairs = List.rev st.pl_entries in
  let prefix_lists =
    List.filter_map
      (fun (name, entries) ->
        try Some (Prefix_list.make name entries)
        with Invalid_argument _ ->
          warn st ~line:0 "prefix-list %s has duplicate sequence numbers" name;
          let dedup =
            List.fold_left
              (fun acc (e : Prefix_list.entry) ->
                if List.exists (fun (x : Prefix_list.entry) -> x.seq = e.seq) acc then acc
                else acc @ [ e ])
              [] entries
          in
          Some (Prefix_list.make name dedup))
      (group_by_name pl_pairs)
  in
  let community_lists =
    List.map (fun (n, es) -> Community_list.make n es) (group_by_name (List.rev st.cl_entries))
  in
  let as_path_lists =
    List.map (fun (n, es) -> As_path_list.make n es) (group_by_name (List.rev st.al_entries))
  in
  let route_maps =
    List.rev_map
      (fun s ->
        ( s.key.rm_name,
          Route_map.entry ~action:s.action ~matches:(List.rev s.matches)
            ~sets:(List.rev s.sets) s.key.rm_seq ))
      st.rm_entries
    |> group_by_name
    |> List.map (fun (n, es) -> Route_map.make n es)
  in
  (* Merge interface-level ospf costs into the ospf block. *)
  (match (st.ospf, List.rev st.ospf_costs) with
  | _, [] -> ()
  | None, _ :: _ ->
      warn st ~line:0 "'ip ospf cost' configured but there is no 'router ospf' process"
  | Some _, costs ->
      List.iter
        (fun (iface, cost) ->
          set_ospf_iface st iface (fun oi -> { oi with Config_ir.cost = Some cost }))
        costs);
  (* Neighbors created by a non-remote-as command first. *)
  (match st.bgp with
  | Some b ->
      List.iter
        (fun (n : Config_ir.neighbor) ->
          if n.remote_as <= 0 then
            warn st ~line:0 "neighbor %s has no remote-as configured" (Ipv4.to_string n.addr))
        b.neighbors
  | None -> ());
  let ospf =
    Option.map
      (fun (o : Config_ir.ospf) ->
        {
          o with
          Config_ir.interfaces =
            List.sort
              (fun (a : Config_ir.ospf_interface) (b : Config_ir.ospf_interface) ->
                Iface.compare a.iface b.iface)
              o.interfaces;
        })
      st.ospf
  in
  let acls =
    List.map (fun (n, es) -> Acl.make n es) (group_by_name st.acl_entries)
  in
  {
    Config_ir.hostname = st.hostname;
    interfaces = st.interfaces;
    prefix_lists;
    community_lists;
    as_path_lists;
    route_maps;
    acls;
    statics = st.statics;
    bgp = st.bgp;
    ospf;
  }

let parse text =
  let st = fresh () in
  let ctx = ref Top in
  let lines = String.split_on_char '\n' text in
  List.iteri
    (fun idx raw ->
      let line = idx + 1 in
      match tokens raw with
      | [] -> ()
      | first :: _ when first.[0] = '!' -> ctx := Top
      | toks -> (
          let indented = raw.[0] = ' ' || raw.[0] = '\t' in
          match (!ctx, indented) with
          | _, false ->
              (* A flush-left line always re-enters top-level dispatch. *)
              ctx := dispatch_top st ~line toks
          | Top, true -> ctx := dispatch_top st ~line toks
          | In_interface iface, true -> handle_interface_line st ~line iface toks
          | In_bgp, true ->
              if is_cli_keyword toks then
                err st ~line
                  "'%s' is an interactive CLI command, not a configuration statement"
                  (String.concat " " toks)
              else handle_bgp_line st ~line toks
          | In_ospf, true -> handle_ospf_line st ~line toks
          | In_route_map stanza, true -> handle_route_map_line st ~line stanza toks
          | In_acl name, true -> handle_acl_line st ~line name toks))
    lines;
  let ir = assemble st in
  (ir, List.rev st.diags)

let parse_clean text =
  match parse text with
  | ir, [] -> Ok ir
  | _, diags -> Error diags
