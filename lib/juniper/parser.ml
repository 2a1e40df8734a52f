open Netcore
open Policy

type state = {
  mutable hostname : string;
  mutable interfaces : Config_ir.interface list;
  mutable prefix_lists : Prefix_list.t list;
  mutable community_lists : Community_list.t list;
  mutable as_path_lists : As_path_list.t list;
  mutable route_maps : Route_map.t list;
  mutable router_id : Ipv4.t option;
  mutable asn : int option;
  mutable networks : Prefix.t list;
  mutable neighbors : Config_ir.neighbor list;
  mutable ospf_interfaces : Config_ir.ospf_interface list;
  mutable acls : Acl.t list;
  mutable statics : Config_ir.static_route list;
  mutable has_bgp : bool;
  mutable has_ospf : bool;
  mutable diags : Diag.t list;
}

let fresh () =
  {
    hostname = "router";
    interfaces = [];
    prefix_lists = [];
    community_lists = [];
    as_path_lists = [];
    route_maps = [];
    router_id = None;
    asn = None;
    networks = [];
    neighbors = [];
    ospf_interfaces = [];
    acls = [];
    statics = [];
    has_bgp = false;
    has_ospf = false;
    diags = [];
  }

let warn st ~line fmt = Printf.ksprintf (fun s -> st.diags <- Diag.warning ~line s :: st.diags) fmt
let err st ~line fmt = Printf.ksprintf (fun s -> st.diags <- Diag.error ~line s :: st.diags) fmt

(* LLM (and fuzzed) text routinely repeats a term or stanza verbatim; the
   IR constructors reject duplicate sequence numbers, so bump collisions to
   the next free number (preserving order) rather than raise. *)
let resequence ~seq_of ~with_seq entries =
  let seen = Hashtbl.create 8 in
  List.map
    (fun e ->
      let seq = ref (seq_of e) in
      while Hashtbl.mem seen !seq do
        incr seq
      done;
      Hashtbl.add seen !seq ();
      with_seq e !seq)
    entries

let find_community_list st n =
  List.find_opt (fun (l : Community_list.t) -> l.name = n) st.community_lists

(* Detects the invalid "1.2.3.0/24-32" shorthand GPT-4 produces when asked
   to translate Cisco's ge/le bounds. *)
let invalid_range_shorthand s =
  match String.index_opt s '/' with
  | None -> false
  | Some i ->
      let tail = String.sub s (i + 1) (String.length s - i - 1) in
      String.contains tail '-' && Prefix.of_string (String.sub s 0 i) <> None

(* ------------------------------------------------------------------ *)
(* system / interfaces                                                 *)
(* ------------------------------------------------------------------ *)

let parse_system st node =
  List.iter
    (fun (n : Ast.node) ->
      match n.keywords with
      | [ "host-name"; h ] -> st.hostname <- h
      | _ -> warn st ~line:n.line "ignoring system statement '%s'" (String.concat " " n.keywords))
    (Ast.children node)

let parse_interface st (n : Ast.node) =
  match n.keywords with
  | [ name ] -> (
      match Iface.of_junos name with
      | None -> err st ~line:n.line "unknown interface name '%s'" name
      | Some iface ->
          let descr = ref None and shutdown = ref false and address = ref None in
          let acl_in = ref None and acl_out = ref None in
          List.iter
            (fun (s : Ast.node) ->
              match s.keywords with
              | [ "description"; d ] -> descr := Some d
              | "description" :: rest -> descr := Some (String.concat " " rest)
              | [ "disable" ] -> shutdown := true
              | [ "unit"; "0" ] ->
                  List.iter
                    (fun (f : Ast.node) ->
                      match f.keywords with
                      | [ "family"; "inet" ] ->
                          List.iter
                            (fun (a : Ast.node) ->
                              match a.keywords with
                              | [ "filter" ] ->
                                  List.iter
                                    (fun (ff : Ast.node) ->
                                      match ff.keywords with
                                      | [ "input"; n ] -> acl_in := Some n
                                      | [ "output"; n ] -> acl_out := Some n
                                      | _ ->
                                          warn st ~line:ff.line
                                            "ignoring filter statement '%s'"
                                            (String.concat " " ff.keywords))
                                    (Ast.children a)
                              | [ "address"; spec ] -> (
                                  match String.index_opt spec '/' with
                                  | Some i -> (
                                      let astr = String.sub spec 0 i in
                                      let lstr =
                                        String.sub spec (i + 1) (String.length spec - i - 1)
                                      in
                                      match (Ipv4.of_string astr, int_of_string_opt lstr) with
                                      | Some a, Some l when l >= 0 && l <= 32 ->
                                          address := Some (a, l)
                                      | _ -> err st ~line:a.line "invalid interface address '%s'" spec)
                                  | None -> err st ~line:a.line "interface address needs a /length")
                              | _ ->
                                  warn st ~line:a.line "ignoring family inet statement '%s'"
                                    (String.concat " " a.keywords))
                            (Ast.children f)
                      | _ ->
                          warn st ~line:f.line "ignoring unit statement '%s'"
                            (String.concat " " f.keywords))
                    (Ast.children s)
              | "unit" :: _ ->
                  warn st ~line:s.line "only unit 0 is supported"
              | _ ->
                  warn st ~line:s.line "ignoring interface statement '%s'"
                    (String.concat " " s.keywords))
            (Ast.children n);
          st.interfaces <-
            st.interfaces
            @ [
                {
                  Config_ir.iface;
                  address = !address;
                  description = !descr;
                  shutdown = !shutdown;
                  acl_in = !acl_in;
                  acl_out = !acl_out;
                };
              ])
  | _ -> err st ~line:n.line "malformed interface block"

(* ------------------------------------------------------------------ *)
(* routing-options                                                     *)
(* ------------------------------------------------------------------ *)

let parse_routing_options st node =
  List.iter
    (fun (n : Ast.node) ->
      match n.keywords with
      | [ "router-id"; r ] -> (
          match Ipv4.of_string r with
          | Some rid -> st.router_id <- Some rid
          | None -> err st ~line:n.line "invalid router-id '%s'" r)
      | [ "autonomous-system"; a ] -> (
          match int_of_string_opt a with
          | Some a when a > 0 -> st.asn <- Some a
          | _ -> err st ~line:n.line "invalid autonomous-system '%s'" a)
      | [ "static" ] ->
          List.iter
            (fun (r : Ast.node) ->
              match r.keywords with
              | [ "route"; dest ] -> (
                  match Prefix.of_string dest with
                  | None -> err st ~line:r.line "invalid static route destination"
                  | Some destination ->
                      List.iter
                        (fun (h : Ast.node) ->
                          match h.keywords with
                          | [ "next-hop"; nh ] -> (
                              match Ipv4.of_string nh with
                              | Some next_hop ->
                                  st.statics <-
                                    st.statics @ [ { Config_ir.destination; next_hop } ]
                              | None -> err st ~line:h.line "invalid next-hop")
                          | _ ->
                              warn st ~line:h.line "ignoring static route statement '%s'"
                                (String.concat " " h.keywords))
                        (Ast.children r))
              | _ ->
                  warn st ~line:r.line "ignoring static statement '%s'"
                    (String.concat " " r.keywords))
            (Ast.children n)
      | [ "announce" ] ->
          List.iter
            (fun (p : Ast.node) ->
              match p.keywords with
              | [ spec ] -> (
                  match Prefix.of_string spec with
                  | Some pre -> st.networks <- st.networks @ [ pre ]
                  | None -> err st ~line:p.line "invalid announced prefix '%s'" spec)
              | _ -> err st ~line:p.line "malformed announce entry")
            (Ast.children n)
      | _ ->
          warn st ~line:n.line "ignoring routing-options statement '%s'"
            (String.concat " " n.keywords))
    (Ast.children node)

(* ------------------------------------------------------------------ *)
(* protocols bgp / ospf                                                *)
(* ------------------------------------------------------------------ *)

let parse_neighbor st (n : Ast.node) =
  match n.keywords with
  | [ "neighbor"; addr ] -> (
      match Ipv4.of_string addr with
      | None -> err st ~line:n.line "invalid neighbor address '%s'" addr
      | Some addr ->
          let peer_as = ref (-1)
          and local_as = ref None
          and descr = ref None
          and import_policy = ref None
          and export_policy = ref None in
          List.iter
            (fun (s : Ast.node) ->
              match s.keywords with
              | [ "peer-as"; a ] -> (
                  match int_of_string_opt a with
                  | Some a when a > 0 -> peer_as := a
                  | _ -> err st ~line:s.line "invalid peer-as '%s'" a)
              | [ "local-as"; a ] -> (
                  match int_of_string_opt a with
                  | Some a when a > 0 -> local_as := Some a
                  | _ -> err st ~line:s.line "invalid local-as '%s'" a)
              | "description" :: rest -> descr := Some (String.concat " " rest)
              | "import" :: pols -> (
                  match pols with
                  | [ p ] -> import_policy := Some p
                  | _ ->
                      err st ~line:s.line
                        "only a single import policy per neighbor is supported")
              | "export" :: pols -> (
                  match pols with
                  | [ p ] -> export_policy := Some p
                  | _ ->
                      err st ~line:s.line
                        "only a single export policy per neighbor is supported")
              | _ ->
                  warn st ~line:s.line "ignoring neighbor statement '%s'"
                    (String.concat " " s.keywords))
            (Ast.children n);
          if !peer_as <= 0 then
            warn st ~line:n.line "neighbor %s has no peer-as" (Ipv4.to_string addr);
          st.neighbors <-
            st.neighbors
            @ [
                {
                  Config_ir.addr;
                  remote_as = !peer_as;
                  local_as = !local_as;
                  description = !descr;
                  import_policy = !import_policy;
                  export_policy = !export_policy;
                  next_hop_self = false;
                  send_community = true;
                };
              ])
  | _ -> err st ~line:n.line "malformed neighbor block"

let parse_bgp st node =
  st.has_bgp <- true;
  List.iter
    (fun (g : Ast.node) ->
      match g.keywords with
      | "group" :: _ ->
          List.iter
            (fun (s : Ast.node) ->
              match s.keywords with
              | "neighbor" :: _ -> parse_neighbor st s
              | [ "type"; ("external" | "internal") ] -> ()
              | [ "local-as"; a ] -> (
                  (* group-level local-as applies to neighbors that follow *)
                  match int_of_string_opt a with
                  | Some a when a > 0 -> if st.asn = None then st.asn <- Some a
                  | _ -> err st ~line:s.line "invalid local-as")
              | _ ->
                  warn st ~line:s.line "ignoring bgp group statement '%s'"
                    (String.concat " " s.keywords))
            (Ast.children g)
      | "neighbor" :: _ -> parse_neighbor st g
      | _ ->
          warn st ~line:g.line "ignoring bgp statement '%s'" (String.concat " " g.keywords))
    (Ast.children node)

let parse_ospf st node =
  st.has_ospf <- true;
  List.iter
    (fun (a : Ast.node) ->
      match a.keywords with
      | [ "area"; area_str ] -> (
          let area =
            match Ipv4.of_string area_str with
            | Some ip -> Some (Ipv4.to_int ip land 0xFF)
            | None -> int_of_string_opt area_str
          in
          match area with
          | None -> err st ~line:a.line "invalid area '%s'" area_str
          | Some area ->
              List.iter
                (fun (i : Ast.node) ->
                  match i.keywords with
                  | [ "interface"; ifname ] -> (
                      match Iface.of_junos ifname with
                      | None -> err st ~line:i.line "unknown interface '%s'" ifname
                      | Some iface ->
                          let cost = ref None and passive = ref false in
                          List.iter
                            (fun (s : Ast.node) ->
                              match s.keywords with
                              | [ "metric"; m ] -> (
                                  match int_of_string_opt m with
                                  | Some m -> cost := Some m
                                  | None -> err st ~line:s.line "invalid metric")
                              | [ "passive" ] -> passive := true
                              | _ ->
                                  warn st ~line:s.line
                                    "ignoring ospf interface statement '%s'"
                                    (String.concat " " s.keywords))
                            (Ast.children i);
                          st.ospf_interfaces <-
                            st.ospf_interfaces
                            @ [ { Config_ir.iface; cost = !cost; passive = !passive; area } ])
                  | _ ->
                      warn st ~line:i.line "ignoring area statement '%s'"
                        (String.concat " " i.keywords))
                (Ast.children a))
      | _ ->
          warn st ~line:a.line "ignoring ospf statement '%s'" (String.concat " " a.keywords))
    (Ast.children node)

(* ------------------------------------------------------------------ *)
(* policy-options                                                      *)
(* ------------------------------------------------------------------ *)

let parse_prefix_list st (n : Ast.node) name =
  let entries = ref [] and seq = ref 0 in
  List.iter
    (fun (p : Ast.node) ->
      match p.keywords with
      | [ spec ] -> (
          if invalid_range_shorthand spec then
            err st ~line:p.line
              "'policy-options prefix-list %s %s' is not valid Juniper syntax: a \
               prefix-list entry is a plain prefix; to match a range of prefix \
               lengths use a route-filter with prefix-length-range or upto in the \
               policy-statement"
              name spec
          else
            match Prefix.of_string spec with
            | Some pre ->
                seq := !seq + 5;
                entries := !entries @ [ Prefix_list.entry !seq (Prefix_range.exact pre) ]
            | None -> err st ~line:p.line "invalid prefix '%s' in prefix-list %s" spec name)
      | _ -> err st ~line:p.line "malformed prefix-list entry")
    (Ast.children n);
  st.prefix_lists <- st.prefix_lists @ [ Prefix_list.make name !entries ]

let parse_route_filter st ~line toks =
  (* route-filter P exact|orlonger|upto /n|prefix-length-range /a-/b *)
  let slash_num s =
    if String.length s > 1 && s.[0] = '/' then
      int_of_string_opt (String.sub s 1 (String.length s - 1))
    else None
  in
  match toks with
  | p :: rest -> (
      if invalid_range_shorthand p then (
        err st ~line
          "'route-filter %s' is not valid syntax: write the prefix and a \
           prefix-length-range /a-/b modifier"
          p;
        None)
      else
        match Prefix.of_string p with
        | None ->
            err st ~line "invalid prefix '%s' in route-filter" p;
            None
        | Some base -> (
            match rest with
            | [ "exact" ] -> Some (Prefix_range.exact base)
            | [ "orlonger" ] -> Some (Prefix_range.orlonger base)
            | [ "upto"; l ] -> (
                match slash_num l with
                | Some l when l >= Prefix.len base && l <= 32 ->
                    Some (Prefix_range.le base l)
                | _ ->
                    err st ~line "invalid upto bound '%s'" l;
                    None)
            | [ "prefix-length-range"; r ] -> (
                match String.split_on_char '-' r with
                | [ a; b ] -> (
                    match (slash_num a, slash_num b) with
                    | Some a, Some b
                      when Prefix.len base <= a && a <= b && b <= 32 ->
                        Some (Prefix_range.make base ~ge:a ~le:b)
                    | _ ->
                        err st ~line "invalid prefix-length-range '%s'" r;
                        None)
                | _ ->
                    err st ~line "invalid prefix-length-range '%s'" r;
                    None)
            | [] -> Some (Prefix_range.exact base)
            | _ ->
                err st ~line "unsupported route-filter modifier '%s'"
                  (String.concat " " rest);
                None))
  | [] ->
      err st ~line "route-filter needs a prefix";
      None

(* Community names referenced in a from clause may be several (OR). A single
   name maps to the named list directly; several synthesize a combined list
   with one entry per name. *)
let resolve_community_match st ~line names =
  match names with
  | [ n ] -> Some (Route_map.Match_community_list n)
  | _ :: _ ->
      let combined_name = "or-" ^ String.concat "-" names in
      (if find_community_list st combined_name = None then
         let entries =
           List.concat_map
             (fun n ->
               match find_community_list st n with
               | Some l -> l.Community_list.entries
               | None ->
                   warn st ~line "community '%s' referenced before definition" n;
                   [])
             names
         in
         if entries <> [] then
           st.community_lists <-
             st.community_lists @ [ Community_list.make combined_name entries ]);
      (* If nothing resolved there is no list to cite: an empty combined
         list would print as a bare [community;] leaf that cannot reparse,
         so the match is dropped (the warnings above already flag it). *)
      if find_community_list st combined_name = None then None
      else Some (Route_map.Match_community_list combined_name)
  | [] ->
      err st ~line "from community needs at least one name";
      None

let parse_term st policy_name idx (n : Ast.node) =
  let term_name =
    match n.keywords with
    | [ "term"; t ] -> t
    | _ -> Printf.sprintf "t%d" ((idx + 1) * 10)
  in
  let seq =
    let s =
      if String.length term_name > 1 && term_name.[0] = 't' then
        int_of_string_opt (String.sub term_name 1 (String.length term_name - 1))
      else int_of_string_opt term_name
    in
    match s with Some s -> s | None -> (idx + 1) * 10
  in
  let matches = ref [] and sets = ref [] and action = ref None in
  let route_filter_ranges = ref [] in
  List.iter
    (fun (c : Ast.node) ->
      match c.keywords with
      | [ "from" ] ->
          List.iter
            (fun (f : Ast.node) ->
              match f.keywords with
              | "route-filter" :: toks -> (
                  match parse_route_filter st ~line:f.line toks with
                  | Some range -> route_filter_ranges := !route_filter_ranges @ [ range ]
                  | None -> ())
              | [ "prefix-list"; name ] ->
                  matches := !matches @ [ Route_map.Match_prefix_list name ]
              | "community" :: names -> (
                  match resolve_community_match st ~line:f.line names with
                  | Some m -> matches := !matches @ [ m ]
                  | None -> ())
              | [ "as-path"; name ] -> matches := !matches @ [ Route_map.Match_as_path name ]
              | [ "protocol"; p ] -> (
                  match p with
                  | "bgp" -> matches := !matches @ [ Route_map.Match_source_protocol Route.Bgp ]
                  | "ospf" -> matches := !matches @ [ Route_map.Match_source_protocol Route.Ospf ]
                  | "direct" | "connected" ->
                      matches := !matches @ [ Route_map.Match_source_protocol Route.Connected ]
                  | "static" ->
                      matches := !matches @ [ Route_map.Match_source_protocol Route.Static ]
                  | _ -> err st ~line:f.line "unknown protocol '%s'" p)
              | [ "metric"; m ] -> (
                  match int_of_string_opt m with
                  | Some m -> matches := !matches @ [ Route_map.Match_med m ]
                  | None -> err st ~line:f.line "invalid metric")
              | _ ->
                  err st ~line:f.line "unrecognized from condition '%s'"
                    (String.concat " " f.keywords))
            (Ast.children c)
      | [ "then" ] ->
          List.iter
            (fun (t : Ast.node) ->
              match t.keywords with
              | [ "accept" ] -> action := Some Action.Permit
              | [ "reject" ] -> action := Some Action.Deny
              | [ "metric"; m ] -> (
                  match int_of_string_opt m with
                  | Some m -> sets := !sets @ [ Route_map.Set_med m ]
                  | None -> err st ~line:t.line "invalid metric")
              | [ "local-preference"; p ] -> (
                  match int_of_string_opt p with
                  | Some p -> sets := !sets @ [ Route_map.Set_local_pref p ]
                  | None -> err st ~line:t.line "invalid local-preference")
              | [ "community"; op; name ] -> (
                  match op with
                  | "add" | "set" -> (
                      match find_community_list st name with
                      | Some { Community_list.entries = e :: _; _ } ->
                          sets :=
                            !sets
                            @ [
                                Route_map.Set_community
                                  {
                                    communities = e.Community_list.communities;
                                    additive = op = "add";
                                  };
                              ]
                      | _ ->
                          err st ~line:t.line
                            "community '%s' used in 'community %s' is not defined" name op)
                  | "delete" -> sets := !sets @ [ Route_map.Set_community_delete name ]
                  | _ -> err st ~line:t.line "unknown community operation '%s'" op)
              | [ "next-hop"; a ] -> (
                  match Ipv4.of_string a with
                  | Some a -> sets := !sets @ [ Route_map.Set_next_hop a ]
                  | None -> err st ~line:t.line "invalid next-hop")
              | [ "as-path-prepend"; spec ] -> (
                  let parts =
                    String.split_on_char ' ' spec |> List.filter (fun x -> x <> "")
                  in
                  let nums = List.map int_of_string_opt parts in
                  match (parts, List.for_all Option.is_some nums) with
                  | [], _ -> err st ~line:t.line "empty as-path-prepend"
                  | _, false -> err st ~line:t.line "invalid as-path-prepend '%s'" spec
                  | _, true ->
                      sets :=
                        !sets @ [ Route_map.Set_as_path_prepend (List.filter_map Fun.id nums) ])
              | _ ->
                  err st ~line:t.line "unrecognized then action '%s'"
                    (String.concat " " t.keywords))
            (Ast.children c)
      | _ ->
          warn st ~line:c.line "ignoring term statement '%s'" (String.concat " " c.keywords))
    (Ast.children n);
  (* Route filters become a synthesized all-permit prefix list. Duplicate
     filter lines are meaningless and are dropped (the printer's
     prefix-space compilation would merge them anyway). *)
  (match !route_filter_ranges with
  | [] -> ()
  | ranges ->
      let ranges =
        List.fold_left
          (fun acc r -> if List.exists (Prefix_range.equal r) acc then acc else acc @ [ r ])
          [] ranges
      in
      let name = Printf.sprintf "rf-%s-%s" policy_name term_name in
      let entries = List.mapi (fun i r -> Prefix_list.entry ((i + 1) * 5) r) ranges in
      st.prefix_lists <- st.prefix_lists @ [ Prefix_list.make name entries ];
      matches := Route_map.Match_prefix_list name :: !matches);
  let action =
    match !action with
    | Some a -> a
    | None ->
        warn st ~line:n.line "term %s of policy %s has no accept/reject; assuming reject"
          term_name policy_name;
        Action.Deny
  in
  Route_map.entry ~action ~matches:!matches ~sets:!sets seq

let parse_policy_statement st (n : Ast.node) name =
  let entries = List.mapi (fun i t -> parse_term st name i t) (Ast.children n) in
  let entries =
    resequence
      ~seq_of:(fun (e : Route_map.entry) -> e.seq)
      ~with_seq:(fun (e : Route_map.entry) seq -> { e with Route_map.seq })
      entries
  in
  st.route_maps <- st.route_maps @ [ Route_map.make name entries ]

let parse_firewall st node =
  let slash_range s =
    match String.index_opt s '-' with
    | Some i -> (
        let lo = String.sub s 0 i and hi = String.sub s (i + 1) (String.length s - i - 1) in
        match (int_of_string_opt lo, int_of_string_opt hi) with
        | Some lo, Some hi when 0 <= lo && lo <= hi && hi <= 65535 ->
            Some (Acl.Port_range (lo, hi))
        | _ -> None)
    | None -> (
        match int_of_string_opt s with
        | Some p when 0 <= p && p <= 65535 -> Some (Acl.Eq p)
        | _ -> None)
  in
  let parse_filter (f : Ast.node) name =
    let entries = ref [] and next_seq = ref 0 in
    List.iter
      (fun (t : Ast.node) ->
        match t.keywords with
        | "term" :: _ ->
            let proto = ref Acl.Any_proto
            and src = ref Prefix.default
            and dst = ref Prefix.default
            and port = ref Acl.Any_port
            and action = ref None in
            List.iter
              (fun (c : Ast.node) ->
                match c.keywords with
                | [ "from" ] ->
                    List.iter
                      (fun (fr : Ast.node) ->
                        match fr.keywords with
                        | [ "protocol"; p ] -> (
                            match Packet.proto_of_string p with
                            | Some p -> proto := Acl.Proto p
                            | None -> err st ~line:fr.line "unknown protocol '%s'" p)
                        | [ "source-address"; spec ] -> (
                            match Prefix.of_string spec with
                            | Some p -> src := p
                            | None -> err st ~line:fr.line "invalid source address")
                        | [ "destination-address"; spec ] -> (
                            match Prefix.of_string spec with
                            | Some p -> dst := p
                            | None -> err st ~line:fr.line "invalid destination address")
                        | [ "destination-port"; spec ] -> (
                            match slash_range spec with
                            | Some pm -> port := pm
                            | None -> err st ~line:fr.line "invalid destination port")
                        | _ ->
                            warn st ~line:fr.line "ignoring filter condition '%s'"
                              (String.concat " " fr.keywords))
                      (Ast.children c)
                | [ "then" ] ->
                    List.iter
                      (fun (th : Ast.node) ->
                        match th.keywords with
                        | [ "accept" ] -> action := Some Action.Permit
                        | [ "discard" ] | [ "reject" ] -> action := Some Action.Deny
                        | _ ->
                            warn st ~line:th.line "ignoring filter action '%s'"
                              (String.concat " " th.keywords))
                      (Ast.children c)
                | _ ->
                    warn st ~line:c.line "ignoring term statement '%s'"
                      (String.concat " " c.keywords))
              (Ast.children t);
            let seq =
              match t.keywords with
              | [ "term"; tn ]
                when String.length tn > 1 && tn.[0] = 't'
                     && int_of_string_opt (String.sub tn 1 (String.length tn - 1)) <> None ->
                  int_of_string (String.sub tn 1 (String.length tn - 1))
              | _ ->
                  next_seq := !next_seq + 10;
                  !next_seq
            in
            let action =
              match !action with
              | Some a -> a
              | None ->
                  warn st ~line:t.line "filter term without accept/discard; assuming discard";
                  Action.Deny
            in
            entries :=
              !entries
              @ [ Acl.entry ~action ~proto:!proto ~src:!src ~dst:!dst ~dst_port:!port seq ]
        | _ ->
            warn st ~line:t.line "ignoring filter statement '%s'"
              (String.concat " " t.keywords))
      (Ast.children f);
    let entries =
      resequence
        ~seq_of:(fun (e : Acl.entry) -> e.seq)
        ~with_seq:(fun (e : Acl.entry) seq -> { e with Acl.seq })
        !entries
    in
    st.acls <- st.acls @ [ Acl.make name entries ]
  in
  List.iter
    (fun (fam : Ast.node) ->
      match fam.keywords with
      | [ "family"; "inet" ] ->
          List.iter
            (fun (f : Ast.node) ->
              match f.keywords with
              | [ "filter"; name ] -> parse_filter f name
              | _ ->
                  warn st ~line:f.line "ignoring firewall statement '%s'"
                    (String.concat " " f.keywords))
            (Ast.children fam)
      | _ ->
          warn st ~line:fam.line "only firewall family inet is supported")
    (Ast.children node)

let parse_policy_options st node =
  (* Two passes: definitions (prefix lists, communities, as-paths) first so
     policy statements can reference them regardless of file order. *)
  List.iter
    (fun (n : Ast.node) ->
      match n.keywords with
      | [ "prefix-list"; name ] -> parse_prefix_list st n name
      | "community" :: name :: "members" :: members -> (
          let parsed = List.map Community.of_string members in
          match (members, List.for_all Option.is_some parsed) with
          | [], _ -> err st ~line:n.line "community %s has no members" name
          | _, false -> err st ~line:n.line "invalid community member in %s" name
          | _, true ->
              st.community_lists <-
                st.community_lists
                @ [
                    Community_list.make name
                      [ Community_list.entry (List.filter_map Fun.id parsed) ];
                  ])
      | [ "as-path"; name; regex ] ->
          st.as_path_lists <-
            st.as_path_lists @ [ As_path_list.make name [ As_path_list.entry regex ] ]
      | [ "policy-statement"; _ ] -> ()
      | _ ->
          warn st ~line:n.line "ignoring policy-options statement '%s'"
            (String.concat " " n.keywords))
    (Ast.children node);
  List.iter
    (fun (n : Ast.node) ->
      match n.keywords with
      | [ "policy-statement"; name ] -> parse_policy_statement st n name
      | _ -> ())
    (Ast.children node)

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let parse text =
  let nodes, tree_diags = Ast.parse text in
  let st = fresh () in
  st.diags <- List.rev tree_diags;
  List.iter
    (fun (n : Ast.node) ->
      match n.keywords with
      | [ "system" ] -> parse_system st n
      | [ "interfaces" ] -> List.iter (parse_interface st) (Ast.children n)
      | [ "routing-options" ] -> parse_routing_options st n
      | [ "protocols" ] ->
          List.iter
            (fun (p : Ast.node) ->
              match p.keywords with
              | [ "bgp" ] -> parse_bgp st p
              | [ "ospf" ] -> parse_ospf st p
              | _ ->
                  warn st ~line:p.line "ignoring protocol '%s'"
                    (String.concat " " p.keywords))
            (Ast.children n)
      | [ "policy-options" ] -> parse_policy_options st n
      | [ "firewall" ] -> parse_firewall st n
      | _ ->
          err st ~line:n.line "unrecognized top-level statement '%s'"
            (String.concat " " n.keywords))
    nodes;
  (* The Table 2 "Missing BGP local-as" warning: a BGP process needs either
     routing-options autonomous-system or per-neighbor local-as. *)
  if st.has_bgp && st.asn = None then begin
    let missing =
      List.filter (fun (n : Config_ir.neighbor) -> n.local_as = None) st.neighbors
    in
    List.iter
      (fun (n : Config_ir.neighbor) ->
        err st ~line:0
          "BGP neighbor %s has no local AS: set 'local-as' on the neighbor or \
           'routing-options autonomous-system'"
          (Ipv4.to_string n.addr))
      missing
  end;
  let bgp =
    if st.has_bgp || st.neighbors <> [] || st.networks <> [] then
      Some
        {
          Config_ir.asn = Option.value ~default:0 st.asn;
          router_id = st.router_id;
          networks = st.networks;
          neighbors = st.neighbors;
          redistributions = [];
        }
    else None
  in
  let ospf =
    if st.has_ospf then
      Some
        {
          Config_ir.process_id = 1;
          router_id = st.router_id;
          networks = [];
          interfaces =
            List.sort
              (fun (a : Config_ir.ospf_interface) (b : Config_ir.ospf_interface) ->
                Iface.compare a.iface b.iface)
              st.ospf_interfaces;
          redistributions = [];
        }
    else None
  in
  ( {
      Config_ir.hostname = st.hostname;
      interfaces = st.interfaces;
      prefix_lists = st.prefix_lists;
      community_lists = st.community_lists;
      as_path_lists = st.as_path_lists;
      route_maps = st.route_maps;
      acls = st.acls;
      statics = st.statics;
      bgp;
      ospf;
    },
    List.rev st.diags )
