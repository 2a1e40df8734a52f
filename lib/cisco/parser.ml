open Netcore
open Policy

(* Parsing state: one scan over the text hands each line's words to the
   handler of the block it belongs to ("interface", "router bgp", ...),
   which records them in mutable builders. Every list is accumulated
   reversed, and [assemble] builds the Config_ir.t once, in first-mention
   order. A record the IR keeps per interface, neighbor or OSPF interface
   sits in a [ref] that later lines update in place. *)

module Names = Hashtbl.Make (String)

(* The entries of one named list (prefix, community, AS-path, access list)
   or the stanzas of one route map, as they arrive. *)
type 'e group = {
  name : string;
  mutable entries : 'e list;  (* reversed *)
  mutable size : int;
  mutable max_seq : int;  (* route maps: the highest stanza number so far *)
}

(* Groups by name: [order] holds them in first-mention order, reversed. *)
type 'e groups = { index : 'e group Names.t; mutable order : 'e group list }

(* One route-map stanza: each [match]/[set] line conses onto the open
   stanza, and [assemble] reverses each list once. *)
type stanza = {
  seq : int;
  action : Action.t;
  mutable matches : Route_map.match_cond list;  (* reversed *)
  mutable sets : Route_map.set_action list;  (* reversed *)
}

type bgp = {
  asn : int;
  mutable bgp_router_id : Ipv4.t option;
  mutable bgp_networks : Prefix.t list;  (* reversed *)
  mutable neighbors : Config_ir.neighbor ref list;  (* reversed *)
  mutable bgp_redistributions : Config_ir.redistribution list;  (* reversed *)
}

type ospf = {
  process_id : int;
  mutable ospf_router_id : Ipv4.t option;
  mutable ospf_networks : (Prefix.t * int) list;  (* reversed *)
  mutable ospf_interfaces : Config_ir.ospf_interface ref list;  (* reversed *)
  mutable ospf_redistributions : Config_ir.redistribution list;  (* reversed *)
}

type state = {
  mutable hostname : string;
  mutable interfaces : Config_ir.interface ref list;  (* reversed *)
  prefix_lists : Prefix_list.entry groups;
  community_lists : Community_list.entry groups;
  as_path_lists : As_path_list.entry groups;
  route_maps : stanza groups;
  acls : Acl.entry groups;
  mutable statics : Config_ir.static_route list;  (* reversed *)
  mutable bgp : bgp option;
  mutable ospf : ospf option;
  mutable ospf_costs : (Iface.t * int) list;  (* from interface blocks, reversed *)
  mutable diags : Diag.t list;  (* reversed *)
}

type context =
  | Top
  | In_interface of Iface.t * Config_ir.interface ref list
      (* every interface record of the block's name: a name opened twice
         has two, and each later line updates both *)
  | In_bgp of bgp
  | In_ospf of ospf
  | In_route_map of stanza
  | In_acl of string

let groups () = { index = Names.create 8; order = [] }

let fresh () =
  {
    hostname = "router";
    interfaces = [];
    prefix_lists = groups ();
    community_lists = groups ();
    as_path_lists = groups ();
    route_maps = groups ();
    acls = groups ();
    statics = [];
    bgp = None;
    ospf = None;
    ospf_costs = [];
    diags = [];
  }

let warn st ~line fmt = Printf.ksprintf (fun s -> st.diags <- Diag.warning ~line s :: st.diags) fmt
let err st ~line fmt = Printf.ksprintf (fun s -> st.diags <- Diag.error ~line s :: st.diags) fmt

(* Lines of one name usually arrive together, so the newest group is tried
   before the index. *)
let find_group gs name =
  match gs.order with
  | g :: _ when String.equal g.name name -> Some g
  | _ -> Names.find_opt gs.index name

let group gs name =
  match find_group gs name with
  | Some g -> g
  | None ->
      let g = { name; entries = []; size = 0; max_seq = min_int } in
      Names.add gs.index name g;
      gs.order <- g :: gs.order;
      g

let push g e =
  g.entries <- e :: g.entries;
  g.size <- g.size + 1

let add_entry gs name e = push (group gs name) e

(* Each group as [make] builds it, in first-mention order. *)
let build gs make = List.map (fun g -> make g.name (List.rev g.entries)) (List.rev gs.order)

(* ------------------------------------------------------------------ *)
(* Tokens                                                              *)
(* ------------------------------------------------------------------ *)

(* The scanners take the text and the bounds of a line in it, so a line is
   never copied and no closure is built per line or per word. *)

let is_trimmed = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

let rec skip_trimmed s i hi = if i < hi && is_trimmed s.[i] then skip_trimmed s (i + 1) hi else i
let rec trim_end s lo j = if j > lo && is_trimmed s.[j - 1] then trim_end s lo (j - 1) else j
let rec word_start s lo k = if k > lo && s.[k - 1] <> ' ' then word_start s lo (k - 1) else k

(* The words of [s.[lo, j)], collected right to left so the list needs no
   reversal; [s.[lo]] is not a space. *)
let rec words s lo acc j =
  if j <= lo then acc
  else if s.[j - 1] = ' ' then words s lo acc (j - 1)
  else
    let k = word_start s lo (j - 1) in
    words s lo (String.sub s k (j - k) :: acc) k

let tokens line =
  let n = String.length line in
  let lo = skip_trimmed line 0 n in
  words line lo [] (trim_end line lo n)

(* The CLI keywords the paper's IIP bans: they belong to an interactive
   session, not a .cfg file. Matched without regard to case. *)
let cli_keywords =
  [ "exit"; "end"; "configure"; "conf"; "write"; "enable"; "copy"; "show" ]

let rec equal_ci a b i =
  i = String.length a || (Char.lowercase_ascii a.[i] = b.[i] && equal_ci a b (i + 1))

let rec mem_ci w = function
  | [] -> false
  | k :: ks -> (String.length k = String.length w && equal_ci w k 0) || mem_ci w ks

let is_cli_keyword = function [] -> false | w :: _ -> mem_ci w cli_keywords

(* ------------------------------------------------------------------ *)
(* Field updates                                                       *)
(* ------------------------------------------------------------------ *)

let update cells f = List.iter (fun c -> c := f !c) cells

let rec find_neighbor addr = function
  | [] -> None
  | c :: rest ->
      if Ipv4.equal !c.Config_ir.addr addr then Some c else find_neighbor addr rest

let update_neighbor b addr f =
  match find_neighbor addr b.neighbors with
  | Some c -> c := f !c
  | None ->
      b.neighbors <-
        ref (f (Config_ir.neighbor addr ~remote_as:(-1) ~send_community:false))
        :: b.neighbors

let rec find_ospf_iface iface = function
  | [] -> None
  | c :: rest ->
      if Iface.equal !c.Config_ir.iface iface then Some c else find_ospf_iface iface rest

let set_ospf_iface o iface f =
  match find_ospf_iface iface o.ospf_interfaces with
  | Some c -> c := f !c
  | None ->
      o.ospf_interfaces <-
        ref (f { Config_ir.iface; cost = None; passive = false; area = 0 })
        :: o.ospf_interfaces

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

let handle_interface_line st ~line cells iface toks =
  match toks with
  | [ "ip"; "address"; a; m ] -> (
      match (Ipv4.of_string a, Ipv4.of_string m) with
      | Some addr, Some mask -> (
          match Netmask.len_of_mask mask with
          | Some len ->
              let address = Some (addr, len) in
              update cells (fun i -> { i with Config_ir.address })
          | None -> err st ~line "'%s' is not a contiguous netmask" m)
      | _ -> err st ~line "malformed ip address statement")
  | "description" :: rest ->
      let description = Some (String.concat " " rest) in
      update cells (fun i -> { i with Config_ir.description })
  | [ "shutdown" ] -> update cells (fun i -> { i with Config_ir.shutdown = true })
  | [ "no"; "shutdown" ] -> ()
  | [ "ip"; "access-group"; name; dir ] -> (
      match dir with
      | "in" -> update cells (fun i -> { i with Config_ir.acl_in = Some name })
      | "out" -> update cells (fun i -> { i with Config_ir.acl_out = Some name })
      | _ -> err st ~line "access-group direction must be 'in' or 'out'")
  | [ "ip"; "ospf"; "cost"; c ] -> (
      match int_of_string_opt c with
      | Some c when c >= 0 -> st.ospf_costs <- (iface, c) :: st.ospf_costs
      | _ -> err st ~line "invalid ospf cost")
  | _ ->
      err st ~line "unrecognized interface statement: '%s'" (String.concat " " toks)

let handle_neighbor_line st ~line b addr rest =
  match rest with
  | [ "remote-as"; asn ] -> (
      match int_of_string_opt asn with
      | Some asn when asn > 0 ->
          update_neighbor b addr (fun n -> { n with Config_ir.remote_as = asn })
      | _ -> err st ~line "invalid remote AS number")
  | [ "local-as"; asn ] -> (
      match int_of_string_opt asn with
      | Some asn when asn > 0 ->
          update_neighbor b addr (fun n -> { n with Config_ir.local_as = Some asn })
      | _ -> err st ~line "invalid local AS number")
  | "description" :: d ->
      let description = Some (String.concat " " d) in
      update_neighbor b addr (fun n -> { n with Config_ir.description })
  | [ "send-community" ] ->
      update_neighbor b addr (fun n -> { n with Config_ir.send_community = true })
  | [ "next-hop-self" ] ->
      update_neighbor b addr (fun n -> { n with Config_ir.next_hop_self = true })
  | [ "route-map"; name; "in" ] ->
      update_neighbor b addr (fun n -> { n with Config_ir.import_policy = Some name })
  | [ "route-map"; name; "out" ] ->
      update_neighbor b addr (fun n -> { n with Config_ir.export_policy = Some name })
  | _ -> err st ~line "unrecognized neighbor statement: '%s'" (String.concat " " rest)

let handle_bgp_line st ~line b toks =
  match toks with
  | [ "bgp"; "router-id"; r ] -> (
      match Ipv4.of_string r with
      | Some rid -> b.bgp_router_id <- Some rid
      | None -> err st ~line "invalid router id '%s'" r)
  | [ "network"; a; "mask"; m ] -> (
      match (Ipv4.of_string a, Option.bind (Ipv4.of_string m) Netmask.len_of_mask) with
      | Some addr, Some len -> b.bgp_networks <- Prefix.make addr len :: b.bgp_networks
      | _ -> err st ~line "malformed network statement")
  | [ "network"; a ] -> (
      match Ipv4.of_string a with
      | Some addr ->
          let len = Netmask.classful_len addr in
          warn st ~line
            "network statement without mask: assuming classful /%d for %s" len a;
          b.bgp_networks <- Prefix.make addr len :: b.bgp_networks
      | None -> err st ~line "malformed network statement")
  | "neighbor" :: addr :: rest -> (
      match Ipv4.of_string addr with
      | None -> err st ~line "invalid neighbor address '%s'" addr
      | Some addr -> handle_neighbor_line st ~line b addr rest)
  | "redistribute" :: rest -> (
      match parse_redistribute st ~line rest with
      | Some r -> b.bgp_redistributions <- r :: b.bgp_redistributions
      | None -> ())
  | [ "no"; "auto-summary" ] | [ "no"; "synchronization" ] -> ()
  | _ -> err st ~line "unrecognized router bgp statement: '%s'" (String.concat " " toks)

let handle_ospf_line st ~line o toks =
  match toks with
  | [ "router-id"; r ] -> (
      match Ipv4.of_string r with
      | Some rid -> o.ospf_router_id <- Some rid
      | None -> err st ~line "invalid router id '%s'" r)
  | [ "network"; a; w; "area"; area ] -> (
      match
        ( Ipv4.of_string a,
          Option.bind (Ipv4.of_string w) Netmask.len_of_wildcard,
          int_of_string_opt area )
      with
      | Some addr, Some len, Some area ->
          o.ospf_networks <- (Prefix.make addr len, area) :: o.ospf_networks
      | _ -> err st ~line "malformed ospf network statement")
  | [ "passive-interface"; ifname ] -> (
      match Iface.of_cisco ifname with
      | Some iface -> set_ospf_iface o iface (fun oi -> { oi with Config_ir.passive = true })
      | None -> err st ~line "unknown interface '%s'" ifname)
  | "redistribute" :: rest -> (
      match parse_redistribute st ~line rest with
      | Some r -> o.ospf_redistributions <- r :: o.ospf_redistributions
      | None -> ())
  | _ -> err st ~line "unrecognized router ospf statement: '%s'" (String.concat " " toks)

let add_match stanza m = stanza.matches <- m :: stanza.matches
let add_set stanza s = stanza.sets <- s :: stanza.sets

let handle_route_map_line st ~line stanza toks =
  match toks with
  | [ "match"; "ip"; "address"; "prefix-list"; name ] ->
      add_match stanza (Route_map.Match_prefix_list name)
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
      | None -> add_match stanza (Route_map.Match_community_list arg))
  | "match" :: "community" :: _ ->
      err st ~line "only one community-list per match line is supported"
  | [ "match"; "as-path"; name ] -> add_match stanza (Route_map.Match_as_path name)
  | [ "match"; "source-protocol"; p ] -> (
      match parse_source_protocol p with
      | Some s -> add_match stanza (Route_map.Match_source_protocol s)
      | None -> err st ~line "unknown source protocol '%s'" p)
  | [ "match"; "metric"; m ] -> (
      match int_of_string_opt m with
      | Some m -> add_match stanza (Route_map.Match_med m)
      | None -> err st ~line "invalid metric")
  | [ "match"; "tag"; t ] -> (
      match int_of_string_opt t with
      | Some t -> add_match stanza (Route_map.Match_tag t)
      | None -> err st ~line "invalid tag")
  | [ "set"; "metric"; m ] -> (
      match int_of_string_opt m with
      | Some m -> add_set stanza (Route_map.Set_med m)
      | None -> err st ~line "invalid metric")
  | [ "set"; "local-preference"; p ] -> (
      match int_of_string_opt p with
      | Some p -> add_set stanza (Route_map.Set_local_pref p)
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
          add_set stanza
            (Route_map.Set_community
               { communities = List.filter_map Fun.id comms; additive }))
  | [ "set"; "comm-list"; name; "delete" ] ->
      add_set stanza (Route_map.Set_community_delete name)
  | [ "set"; "ip"; "next-hop"; a ] -> (
      match Ipv4.of_string a with
      | Some a -> add_set stanza (Route_map.Set_next_hop a)
      | None -> err st ~line "invalid next-hop address")
  | "set" :: "as-path" :: "prepend" :: asns -> (
      let parsed = List.map int_of_string_opt asns in
      match (asns, List.for_all Option.is_some parsed) with
      | [], _ -> err st ~line "as-path prepend requires at least one AS"
      | _, false -> err st ~line "invalid AS number in prepend"
      | _, true ->
          add_set stanza (Route_map.Set_as_path_prepend (List.filter_map Fun.id parsed)))
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
  let add entry = add_entry st.acls name entry in
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
                      (* Entries are numbered 10, 20, ... per list. *)
                      let seq =
                        match find_group st.acls name with
                        | Some g -> (g.size + 1) * 10
                        | None -> 10
                      in
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
          | Some range -> add_entry st.prefix_lists name (Prefix_list.entry ~action seq range)
          | None -> err st ~line "invalid prefix-list bounds")
      | _ -> err st ~line "malformed ip prefix-list statement")
  | name :: action :: prefix :: _
    when Action.of_string action <> None && Prefix.of_string prefix <> None ->
      err st ~line
        "ip prefix-list %s: missing 'seq <n>' before the action" name
  | _ -> err st ~line "malformed ip prefix-list statement"

let looks_like_regex s =
  String.exists (fun c -> List.mem c [ '.'; '*'; '+'; '['; '^'; '$'; '_' ]) s

let add_community_list st ~line name action comms =
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
          add_entry st.community_lists name
            (Community_list.entry ~action (List.filter_map Fun.id parsed)))

let handle_community_list st ~line toks =
  (* ip community-list standard NAME permit c1 c2... (also numbered lists) *)
  match toks with
  | "standard" :: name :: action :: comms -> add_community_list st ~line name action comms
  | "expanded" :: name :: _ ->
      err st ~line "expanded community-list %s: regex community lists are not supported" name
  | name :: action :: comms when Action.of_string action <> None ->
      add_community_list st ~line name action comms
  | _ -> err st ~line "malformed ip community-list statement"

let handle_as_path_list st ~line toks =
  (* ip as-path access-list NAME permit REGEX *)
  match toks with
  | name :: action :: regex_parts when regex_parts <> [] -> (
      match Action.of_string action with
      | Some action ->
          let regex = String.concat " " regex_parts in
          add_entry st.as_path_lists name (As_path_list.entry ~action regex)
      | None -> err st ~line "malformed as-path access-list statement")
  | _ -> err st ~line "malformed as-path access-list statement"

(* A stanza number already taken in its map is refused; stanzas usually
   arrive in increasing order, which needs no search. *)
let open_stanza st ~line name action seq =
  let g = group st.route_maps name in
  if seq <= g.max_seq && List.exists (fun (s : stanza) -> s.seq = seq) g.entries then (
    err st ~line "duplicate route-map stanza %s %d" name seq;
    Top)
  else
    let stanza = { seq; action; matches = []; sets = [] } in
    push g stanza;
    g.max_seq <- max g.max_seq seq;
    In_route_map stanza

let dispatch_top st ~line toks : context =
  match toks with
  | [] -> Top
  | [ "hostname"; h ] ->
      st.hostname <- h;
      Top
  | "interface" :: [ ifname ] -> (
      match Iface.of_cisco ifname with
      | Some iface ->
          let same =
            List.filter
              (fun (c : Config_ir.interface ref) -> Iface.equal !c.iface iface)
              st.interfaces
          in
          let cell = ref (Config_ir.interface iface) in
          st.interfaces <- cell :: st.interfaces;
          In_interface (iface, cell :: same)
      | None ->
          err st ~line "unknown interface name '%s'" ifname;
          Top)
  | [ "router"; "bgp"; asn ] -> (
      match int_of_string_opt asn with
      | Some asn when asn > 0 -> (
          match st.bgp with
          | Some b -> In_bgp b
          | None ->
              let b =
                {
                  asn;
                  bgp_router_id = None;
                  bgp_networks = [];
                  neighbors = [];
                  bgp_redistributions = [];
                }
              in
              st.bgp <- Some b;
              In_bgp b)
      | _ ->
          err st ~line "invalid BGP AS number '%s'" asn;
          Top)
  | [ "router"; "ospf"; pid ] -> (
      match int_of_string_opt pid with
      | Some pid when pid > 0 -> (
          match st.ospf with
          | Some o -> In_ospf o
          | None ->
              let o =
                {
                  process_id = pid;
                  ospf_router_id = None;
                  ospf_networks = [];
                  ospf_interfaces = [];
                  ospf_redistributions = [];
                }
              in
              st.ospf <- Some o;
              In_ospf o)
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
          st.statics <- { Config_ir.destination = Prefix.make dest len; next_hop } :: st.statics
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
      | Some action, Some seq -> open_stanza st ~line name action seq
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

let assemble st =
  let prefix_lists =
    build st.prefix_lists (fun name entries ->
        try Prefix_list.make name entries
        with Invalid_argument _ ->
          warn st ~line:0 "prefix-list %s has duplicate sequence numbers" name;
          let dedup =
            List.fold_left
              (fun acc (e : Prefix_list.entry) ->
                if List.exists (fun (x : Prefix_list.entry) -> x.seq = e.seq) acc then acc
                else e :: acc)
              [] entries
          in
          Prefix_list.make name (List.rev dedup))
  in
  let community_lists = build st.community_lists Community_list.make in
  let as_path_lists = build st.as_path_lists As_path_list.make in
  let route_maps =
    List.rev_map
      (fun g ->
        Route_map.make g.name
          (List.rev_map
             (fun s ->
               Route_map.entry ~action:s.action ~matches:(List.rev s.matches)
                 ~sets:(List.rev s.sets) s.seq)
             g.entries))
      st.route_maps.order
  in
  (* Merge interface-level ospf costs into the ospf block. *)
  (match (st.ospf, List.rev st.ospf_costs) with
  | _, [] -> ()
  | None, _ :: _ ->
      warn st ~line:0 "'ip ospf cost' configured but there is no 'router ospf' process"
  | Some o, costs ->
      List.iter
        (fun (iface, cost) ->
          set_ospf_iface o iface (fun oi -> { oi with Config_ir.cost = Some cost }))
        costs);
  let bgp =
    Option.map
      (fun b ->
        let neighbors = List.rev_map ( ! ) b.neighbors in
        (* Neighbors created by a non-remote-as command first. *)
        List.iter
          (fun (n : Config_ir.neighbor) ->
            if n.remote_as <= 0 then
              warn st ~line:0 "neighbor %s has no remote-as configured" (Ipv4.to_string n.addr))
          neighbors;
        {
          Config_ir.asn = b.asn;
          router_id = b.bgp_router_id;
          networks = List.rev b.bgp_networks;
          neighbors;
          redistributions = List.rev b.bgp_redistributions;
        })
      st.bgp
  in
  let ospf =
    Option.map
      (fun o ->
        {
          Config_ir.process_id = o.process_id;
          router_id = o.ospf_router_id;
          networks = List.rev o.ospf_networks;
          interfaces =
            List.sort
              (fun (a : Config_ir.ospf_interface) (b : Config_ir.ospf_interface) ->
                Iface.compare a.iface b.iface)
              (List.rev_map ( ! ) o.ospf_interfaces);
          redistributions = List.rev o.ospf_redistributions;
        })
      st.ospf
  in
  {
    Config_ir.hostname = st.hostname;
    interfaces = List.rev_map ( ! ) st.interfaces;
    prefix_lists;
    community_lists;
    as_path_lists;
    route_maps;
    acls = build st.acls Acl.make;
    statics = List.rev st.statics;
    bgp;
    ospf;
  }

(* One line, [text.[start, hi)]: its words go to the handler of the open
   block, and the block open after it is returned. *)
let parse_line st ctx ~line text start hi =
  let lo = skip_trimmed text start hi in
  if lo = hi then ctx
  else if text.[lo] = '!' then Top
  else
    let toks = words text lo [] (trim_end text lo hi) in
    let indented = text.[start] = ' ' || text.[start] = '\t' in
    if not indented then
      (* A flush-left line always re-enters top-level dispatch. *)
      dispatch_top st ~line toks
    else
      match ctx with
      | Top -> dispatch_top st ~line toks
      | In_interface (iface, cells) ->
          handle_interface_line st ~line cells iface toks;
          ctx
      | In_bgp b ->
          if is_cli_keyword toks then
            err st ~line "'%s' is an interactive CLI command, not a configuration statement"
              (String.concat " " toks)
          else handle_bgp_line st ~line b toks;
          ctx
      | In_ospf o ->
          handle_ospf_line st ~line o toks;
          ctx
      | In_route_map stanza ->
          handle_route_map_line st ~line stanza toks;
          ctx
      | In_acl name ->
          handle_acl_line st ~line name toks;
          ctx

let rec line_end text i n = if i < n && text.[i] <> '\n' then line_end text (i + 1) n else i

let rec parse_lines st text n ctx line lo =
  let hi = line_end text lo n in
  let ctx = parse_line st ctx ~line text lo hi in
  if hi < n then parse_lines st text n ctx (line + 1) (hi + 1)

let parse text =
  let st = fresh () in
  parse_lines st text (String.length text) Top 1 0;
  let ir = assemble st in
  (ir, List.rev st.diags)
