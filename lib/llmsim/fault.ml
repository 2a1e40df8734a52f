open Netcore
open Policy

type target =
  | Whole_config
  | Neighbor of Ipv4.t
  | Policy of string
  | Policy_entry of string * int
  | Interface of Iface.t
  | Named_list of string
  | Network of Prefix.t

type t = { class_ : Error_class.t; target : target }

type dialect = Cisco_cfg | Junos_cfg

let make class_ target = { class_; target }
let equal (a : t) b = a = b

let target_to_string = function
  | Whole_config -> "config"
  | Neighbor a -> "neighbor " ^ Ipv4.to_string a
  | Policy p -> "policy " ^ p
  | Policy_entry (p, s) -> Printf.sprintf "policy %s seq %d" p s
  | Interface i -> "interface " ^ Iface.cisco_name i
  | Named_list n -> "list " ^ n
  | Network p -> "network " ^ Prefix.to_string p

let to_string f =
  Printf.sprintf "%s@%s" (Error_class.to_string f.class_) (target_to_string f.target)

(* ------------------------------------------------------------------ *)
(* Opportunities                                                       *)
(* ------------------------------------------------------------------ *)

let neighbors (c : Config_ir.t) =
  match c.Config_ir.bgp with None -> [] | Some b -> b.Config_ir.neighbors

let has_ranged_entries (l : Prefix_list.t) =
  List.exists
    (fun (e : Prefix_list.entry) -> not (Prefix_range.is_exact e.Prefix_list.range))
    l.Prefix_list.entries

let med_entries (c : Config_ir.t) =
  List.concat_map
    (fun (m : Route_map.t) ->
      List.filter_map
        (fun (e : Route_map.entry) ->
          if List.exists (function Route_map.Set_med _ -> true | _ -> false) e.Route_map.sets
          then Some (m.Route_map.name, e.Route_map.seq)
          else None)
        m.Route_map.entries)
    c.Config_ir.route_maps

let community_match_entries (c : Config_ir.t) =
  List.concat_map
    (fun (m : Route_map.t) ->
      List.filter_map
        (fun (e : Route_map.entry) ->
          if
            List.exists
              (function Route_map.Match_community_list _ -> true | _ -> false)
              e.Route_map.matches
          then Some (m.Route_map.name, e.Route_map.seq)
          else None)
        m.Route_map.entries)
    c.Config_ir.route_maps

let additive_entries (c : Config_ir.t) =
  List.concat_map
    (fun (m : Route_map.t) ->
      List.filter_map
        (fun (e : Route_map.entry) ->
          if
            List.exists
              (function
                | Route_map.Set_community { additive = true; _ } -> true
                | _ -> false)
              e.Route_map.sets
          then Some (m.Route_map.name, e.Route_map.seq)
          else None)
        m.Route_map.entries)
    c.Config_ir.route_maps

(* Maps where the AND/OR confusion is expressible: at least two deny entries
   each matching a single community list. *)
let and_or_candidates (c : Config_ir.t) =
  List.filter_map
    (fun (m : Route_map.t) ->
      let single_community_denies =
        List.filter
          (fun (e : Route_map.entry) ->
            e.Route_map.action = Action.Deny
            && match e.Route_map.matches with
               | [ Route_map.Match_community_list _ ] -> true
               | _ -> false)
          m.Route_map.entries
      in
      if List.length single_community_denies >= 2 then Some m.Route_map.name else None)
    c.Config_ir.route_maps

let has_protocol_scoping (c : Config_ir.t) =
  List.exists
    (fun (m : Route_map.t) ->
      List.exists
        (fun (e : Route_map.entry) ->
          List.exists
            (function Route_map.Match_source_protocol _ -> true | _ -> false)
            e.Route_map.matches)
        m.Route_map.entries)
    c.Config_ir.route_maps

let ospf_interfaces (c : Config_ir.t) =
  match c.Config_ir.ospf with None -> [] | Some o -> o.Config_ir.interfaces

let acl_opportunities (c : Config_ir.t) =
  let f cls tgt = { class_ = cls; target = tgt } in
  List.concat_map
    (fun (a : Acl.t) ->
      List.concat_map
        (fun (e : Acl.entry) ->
          f Error_class.Acl_action_flipped (Policy_entry (a.Acl.name, e.Acl.seq))
          :: f Error_class.Acl_entry_dropped (Policy_entry (a.Acl.name, e.Acl.seq))
          ::
          (match e.Acl.dst_port with
          | Acl.Any_port -> []
          | Acl.Eq _ | Acl.Port_range _ ->
              [ f Error_class.Acl_wrong_port (Policy_entry (a.Acl.name, e.Acl.seq)) ]))
        a.Acl.entries)
    c.Config_ir.acls

let opportunities dialect (c : Config_ir.t) =
  let f cls tgt = { class_ = cls; target = tgt } in
  match dialect with
  | Junos_cfg ->
      (match c.Config_ir.bgp with
      | Some _ -> [ f Error_class.Missing_local_as Whole_config ]
      | None -> [])
      @ List.filter_map
          (fun (n : Config_ir.neighbor) ->
            Option.map
              (fun _ -> f Error_class.Missing_import_policy (Neighbor n.Config_ir.addr))
              n.Config_ir.import_policy)
          (neighbors c)
      @ List.filter_map
          (fun (n : Config_ir.neighbor) ->
            Option.map
              (fun _ -> f Error_class.Missing_export_policy (Neighbor n.Config_ir.addr))
              n.Config_ir.export_policy)
          (neighbors c)
      @ List.concat_map
          (fun (oi : Config_ir.ospf_interface) ->
            f Error_class.Ospf_cost_wrong (Interface oi.Config_ir.iface)
            :: (if oi.Config_ir.passive then
                  [ f Error_class.Ospf_passive_wrong (Interface oi.Config_ir.iface) ]
                else []))
          (ospf_interfaces c)
      @ List.map (fun (m, s) -> f Error_class.Wrong_med (Policy_entry (m, s))) (med_entries c)
      @ List.filter_map
          (fun (l : Prefix_list.t) ->
            if has_ranged_entries l then
              Some (f Error_class.Prefix_range_dropped (Named_list l.Prefix_list.name))
            else None)
          c.Config_ir.prefix_lists
      @ (if has_protocol_scoping c then
           [ f Error_class.Redistribution_unscoped Whole_config ]
         else [])
      @ acl_opportunities c
  | Cisco_cfg ->
      [ f Error_class.Cli_keywords Whole_config ]
      @ List.map
          (fun (m, s) -> f Error_class.Match_community_literal (Policy_entry (m, s)))
          (community_match_entries c)
      @ List.map
          (fun (m, s) -> f Error_class.Community_not_additive (Policy_entry (m, s)))
          (additive_entries c)
      @ List.filter_map
          (fun (n : Config_ir.neighbor) ->
            Option.map
              (fun _ -> f Error_class.Neighbor_outside_bgp (Neighbor n.Config_ir.addr))
              n.Config_ir.export_policy)
          (neighbors c)
      @ List.map (fun m -> f Error_class.And_or_confusion (Policy m)) (and_or_candidates c)
      @ (let with_imports =
           List.filter
             (fun (n : Config_ir.neighbor) -> n.Config_ir.import_policy <> None)
             (neighbors c)
         in
         if List.length with_imports >= 2 then
           [ f Error_class.Crossed_policy_attachment Whole_config ]
         else [])
      @ List.concat_map
          (fun (m : Route_map.t) ->
            let has_prepend =
              List.exists
                (fun (e : Route_map.entry) ->
                  List.exists
                    (function Route_map.Set_as_path_prepend _ -> true | _ -> false)
                    e.Route_map.sets)
                m.Route_map.entries
            in
            let has_denies =
              List.exists
                (fun (e : Route_map.entry) -> e.Route_map.action = Action.Deny)
                m.Route_map.entries
            in
            if not has_prepend then []
            else
              (if has_denies then
                 [ f Error_class.Policy_inserted_early (Policy m.Route_map.name) ]
               else [])
              @
              if List.length c.Config_ir.route_maps >= 2 then
                [ f Error_class.Wrong_policy_modified (Policy m.Route_map.name) ]
              else [])
          c.Config_ir.route_maps
      @ List.filter_map
          (fun (i : Config_ir.interface) ->
            Option.map
              (fun _ -> f Error_class.Wrong_interface_ip (Interface i.Config_ir.iface))
              i.Config_ir.address)
          c.Config_ir.interfaces
      @ (match c.Config_ir.bgp with
        | Some b ->
            [
              f Error_class.Wrong_local_as Whole_config;
              f Error_class.Extra_neighbor_decl Whole_config;
              f Error_class.Extra_network_decl Whole_config;
            ]
            @ (match b.Config_ir.router_id with
              | Some _ -> [ f Error_class.Wrong_router_id Whole_config ]
              | None -> [])
            @ List.map
                (fun (n : Config_ir.neighbor) ->
                  f Error_class.Missing_neighbor_decl (Neighbor n.Config_ir.addr))
                b.Config_ir.neighbors
            @ List.map
                (fun p -> f Error_class.Missing_network_decl (Network p))
                b.Config_ir.networks
        | None -> [])

(* ------------------------------------------------------------------ *)
(* IR corruption                                                       *)
(* ------------------------------------------------------------------ *)

let map_neighbor (c : Config_ir.t) addr g =
  match c.Config_ir.bgp with
  | None -> c
  | Some b ->
      let neighbors =
        List.map
          (fun (n : Config_ir.neighbor) ->
            if Ipv4.equal n.Config_ir.addr addr then g n else n)
          b.Config_ir.neighbors
      in
      { c with Config_ir.bgp = Some { b with Config_ir.neighbors } }

let map_bgp (c : Config_ir.t) g =
  match c.Config_ir.bgp with None -> c | Some b -> { c with Config_ir.bgp = Some (g b) }

let map_ospf_iface (c : Config_ir.t) iface g =
  match c.Config_ir.ospf with
  | None -> c
  | Some o ->
      let interfaces =
        List.map
          (fun (oi : Config_ir.ospf_interface) ->
            if Iface.equal oi.Config_ir.iface iface then g oi else oi)
          o.Config_ir.interfaces
      in
      { c with Config_ir.ospf = Some { o with Config_ir.interfaces } }

let map_route_map (c : Config_ir.t) name g =
  {
    c with
    Config_ir.route_maps =
      List.map
        (fun (m : Route_map.t) -> if m.Route_map.name = name then g m else m)
        c.Config_ir.route_maps;
  }

let map_entry (c : Config_ir.t) name seq g =
  map_route_map c name (fun m ->
      Route_map.make m.Route_map.name
        (List.map
           (fun (e : Route_map.entry) -> if e.Route_map.seq = seq then g e else e)
           m.Route_map.entries))

let apply_and_or_confusion (m : Route_map.t) =
  (* Merge all single-community deny entries into the first one (AND). *)
  let is_single_comm_deny (e : Route_map.entry) =
    e.Route_map.action = Action.Deny
    && match e.Route_map.matches with
       | [ Route_map.Match_community_list _ ] -> true
       | _ -> false
  in
  let denies, others = List.partition is_single_comm_deny m.Route_map.entries in
  match denies with
  | [] | [ _ ] -> m
  | first :: _ ->
      let all_matches = List.concat_map (fun (e : Route_map.entry) -> e.Route_map.matches) denies in
      let merged = { first with Route_map.matches = all_matches } in
      Route_map.make m.Route_map.name
        (List.sort
           (fun (a : Route_map.entry) b -> Int.compare a.Route_map.seq b.Route_map.seq)
           (merged :: others))

let extra_neighbor_addr (b : Config_ir.bgp) =
  let k = List.length b.Config_ir.neighbors + 1 in
  (Ipv4.of_octets (k land 0xFF) 0 0 2, k)

let apply_ir (c : Config_ir.t) (fault : t) =
  match (fault.class_, fault.target) with
  | Error_class.Missing_import_policy, Neighbor a ->
      map_neighbor c a (fun n -> { n with Config_ir.import_policy = None })
  | Error_class.Missing_export_policy, Neighbor a ->
      map_neighbor c a (fun n -> { n with Config_ir.export_policy = None })
  | Error_class.Ospf_cost_wrong, Interface i ->
      (* The translated metric is dropped, silently reverting to the Junos
         default — exactly the Table 1 cost example. *)
      map_ospf_iface c i (fun oi -> { oi with Config_ir.cost = None })
  | Error_class.Ospf_passive_wrong, Interface i ->
      map_ospf_iface c i (fun oi -> { oi with Config_ir.passive = not oi.Config_ir.passive })
  | Error_class.Wrong_med, Policy_entry (m, s) ->
      map_entry c m s (fun e ->
          {
            e with
            Route_map.sets =
              List.filter
                (function Route_map.Set_med _ -> false | _ -> true)
                e.Route_map.sets;
          })
  | Error_class.Prefix_range_dropped, Named_list n ->
      {
        c with
        Config_ir.prefix_lists =
          List.map
            (fun (l : Prefix_list.t) ->
              if l.Prefix_list.name = n then
                Prefix_list.make n
                  (List.map
                     (fun (e : Prefix_list.entry) ->
                       {
                         e with
                         Prefix_list.range =
                           Prefix_range.exact (Prefix_range.base e.Prefix_list.range);
                       })
                     l.Prefix_list.entries)
              else l)
            c.Config_ir.prefix_lists;
      }
  | Error_class.Redistribution_unscoped, Whole_config ->
      {
        c with
        Config_ir.route_maps =
          List.map
            (fun (m : Route_map.t) ->
              Route_map.make m.Route_map.name
                (List.map
                   (fun (e : Route_map.entry) ->
                     {
                       e with
                       Route_map.matches =
                         List.filter
                           (function
                             | Route_map.Match_source_protocol _ -> false
                             | _ -> true)
                           e.Route_map.matches;
                     })
                   m.Route_map.entries))
            c.Config_ir.route_maps;
      }
  | Error_class.Community_not_additive, Policy_entry (m, s) ->
      map_entry c m s (fun e ->
          {
            e with
            Route_map.sets =
              List.map
                (function
                  | Route_map.Set_community { communities; additive = true } ->
                      Route_map.Set_community { communities; additive = false }
                  | other -> other)
                e.Route_map.sets;
          })
  | Error_class.And_or_confusion, Policy m -> map_route_map c m apply_and_or_confusion
  | Error_class.Wrong_interface_ip, Interface i ->
      {
        c with
        Config_ir.interfaces =
          List.map
            (fun (x : Config_ir.interface) ->
              if Iface.equal x.Config_ir.iface i then
                match x.Config_ir.address with
                | Some (a, l) -> { x with Config_ir.address = Some (Ipv4.succ a, l) }
                | None -> x
              else x)
            c.Config_ir.interfaces;
      }
  | Error_class.Wrong_local_as, Whole_config ->
      map_bgp c (fun b -> { b with Config_ir.asn = b.Config_ir.asn + 2 })
  | Error_class.Wrong_router_id, Whole_config ->
      map_bgp c (fun b ->
          { b with Config_ir.router_id = Option.map Ipv4.succ b.Config_ir.router_id })
  | Error_class.Missing_neighbor_decl, Neighbor a ->
      map_bgp c (fun b ->
          {
            b with
            Config_ir.neighbors =
              List.filter
                (fun (n : Config_ir.neighbor) -> not (Ipv4.equal n.Config_ir.addr a))
                b.Config_ir.neighbors;
          })
  | Error_class.Extra_neighbor_decl, Whole_config ->
      map_bgp c (fun b ->
          let addr, asn = extra_neighbor_addr b in
          {
            b with
            Config_ir.neighbors =
              b.Config_ir.neighbors @ [ Config_ir.neighbor addr ~remote_as:asn ];
          })
  | Error_class.Missing_network_decl, Network p ->
      map_bgp c (fun b ->
          {
            b with
            Config_ir.networks = List.filter (fun x -> not (Prefix.equal x p)) b.Config_ir.networks;
          })
  | Error_class.Extra_network_decl, Whole_config ->
      map_bgp c (fun b ->
          let k = (List.length b.Config_ir.neighbors + 1) land 0xFF in
          {
            b with
            Config_ir.networks =
              b.Config_ir.networks @ [ Prefix.make (Ipv4.of_octets k 0 0 0) 24 ];
          })
  | Error_class.Policy_inserted_early, Policy name ->
      map_route_map c name (fun m ->
          (* Strip the prepend from its entry and re-insert it as a new
             permit term ahead of every existing stanza. *)
          let prepend = ref None in
          let stripped =
            List.map
              (fun (e : Route_map.entry) ->
                let sets =
                  List.filter
                    (function
                      | Route_map.Set_as_path_prepend asns ->
                          prepend := Some asns;
                          false
                      | _ -> true)
                    e.Route_map.sets
                in
                { e with Route_map.sets })
              m.Route_map.entries
          in
          match !prepend with
          | None -> m
          | Some asns ->
              let min_seq =
                List.fold_left
                  (fun acc (e : Route_map.entry) -> min acc e.Route_map.seq)
                  max_int stripped
              in
              let early =
                Route_map.entry
                  ~sets:[ Route_map.Set_as_path_prepend asns ]
                  (max 1 (min_seq - 5))
              in
              Route_map.make m.Route_map.name (early :: stripped))
  | Error_class.Wrong_policy_modified, Policy name ->
      (* Move the prepend actions to the alphabetically next route map. *)
      let prepends = ref [] in
      let stripped =
        map_route_map c name (fun m ->
            Route_map.make m.Route_map.name
              (List.map
                 (fun (e : Route_map.entry) ->
                   let sets =
                     List.filter
                       (function
                         | Route_map.Set_as_path_prepend asns ->
                             prepends := asns :: !prepends;
                             false
                         | _ -> true)
                       e.Route_map.sets
                   in
                   { e with Route_map.sets })
                 m.Route_map.entries))
      in
      let other =
        let names =
          List.sort String.compare
            (List.filter_map
               (fun (m : Route_map.t) ->
                 if m.Route_map.name = name then None else Some m.Route_map.name)
               c.Config_ir.route_maps)
        in
        List.find_opt (fun n -> n > name) names
        |> fun found -> (match (found, names) with Some n, _ -> Some n | None, n :: _ -> Some n | None, [] -> None)
      in
      (match (!prepends, other) with
      | asns :: _, Some other_name ->
          map_route_map stripped other_name (fun m ->
              match List.rev m.Route_map.entries with
              | last :: rest when last.Route_map.action = Action.Permit ->
                  Route_map.make m.Route_map.name
                    (List.rev
                       ({ last with
                          Route_map.sets =
                            last.Route_map.sets @ [ Route_map.Set_as_path_prepend asns ] }
                       :: rest))
              | _ -> m)
      | _ -> stripped)
  | Error_class.Acl_action_flipped, Policy_entry (name, seq) ->
      {
        c with
        Config_ir.acls =
          List.map
            (fun (a : Acl.t) ->
              if a.Acl.name = name then
                Acl.make name
                  (List.map
                     (fun (e : Acl.entry) ->
                       if e.Acl.seq = seq then
                         { e with Acl.action = Action.flip e.Acl.action }
                       else e)
                     a.Acl.entries)
              else a)
            c.Config_ir.acls;
      }
  | Error_class.Acl_entry_dropped, Policy_entry (name, seq) ->
      {
        c with
        Config_ir.acls =
          List.map
            (fun (a : Acl.t) ->
              if a.Acl.name = name then
                Acl.make name
                  (List.filter (fun (e : Acl.entry) -> e.Acl.seq <> seq) a.Acl.entries)
              else a)
            c.Config_ir.acls;
      }
  | Error_class.Acl_wrong_port, Policy_entry (name, seq) ->
      {
        c with
        Config_ir.acls =
          List.map
            (fun (a : Acl.t) ->
              if a.Acl.name = name then
                Acl.make name
                  (List.map
                     (fun (e : Acl.entry) ->
                       if e.Acl.seq = seq then
                         {
                           e with
                           Acl.dst_port =
                             (match e.Acl.dst_port with
                             | Acl.Eq p -> Acl.Eq ((p + 1) land 0xFFFF)
                             | Acl.Port_range (lo, hi) ->
                                 Acl.Port_range (lo, min 65535 (hi + 1))
                             | Acl.Any_port -> Acl.Any_port);
                         }
                       else e)
                     a.Acl.entries)
              else a)
            c.Config_ir.acls;
      }
  | Error_class.Crossed_policy_attachment, Whole_config ->
      map_bgp c (fun b ->
          let with_imports =
            List.filter
              (fun (n : Config_ir.neighbor) -> n.Config_ir.import_policy <> None)
              b.Config_ir.neighbors
          in
          match with_imports with
          | first :: second :: _ ->
              let swap (n : Config_ir.neighbor) =
                if Ipv4.equal n.Config_ir.addr first.Config_ir.addr then
                  { n with Config_ir.import_policy = second.Config_ir.import_policy }
                else if Ipv4.equal n.Config_ir.addr second.Config_ir.addr then
                  { n with Config_ir.import_policy = first.Config_ir.import_policy }
                else n
              in
              { b with Config_ir.neighbors = List.map swap b.Config_ir.neighbors }
          | _ -> b)
  (* Text-level faults: no IR change. *)
  | Error_class.Missing_local_as, _
  | Error_class.Bad_prefix_list_syntax, _
  | Error_class.Cli_keywords, _
  | Error_class.Match_community_literal, _
  | Error_class.Neighbor_outside_bgp, _ ->
      c
  (* Mis-targeted faults are ignored (total rendering). *)
  | _, _ -> c

(* ------------------------------------------------------------------ *)
(* Text corruption                                                     *)
(* ------------------------------------------------------------------ *)

(* Text faults work on the printed draft's lines: [render] splits the text
   once, folds every text fault over the line list and joins it once. A
   text that ends with a newline has an empty last line. *)

(* The lines of the text [lines] followed by [s]: the first line of [s]
   continues the last line. *)
let append lines s =
  match (List.rev lines, String.split_on_char '\n' s) with
  | last :: rev_init, first :: rest -> List.rev_append rev_init ((last ^ first) :: rest)
  | [], parts -> parts
  | _, [] -> lines

let apply_missing_local_as lines =
  List.filter
    (fun l ->
      not
        (Substring.contains ~sub:"autonomous-system" l
        || Substring.contains ~sub:"local-as" l))
    lines

let apply_bad_prefix_list (correct : Config_ir.t) list_name lines =
  match Config_ir.find_prefix_list correct list_name with
  | None | Some { Prefix_list.entries = []; _ } -> lines
  | Some { Prefix_list.entries = e :: _; _ } ->
      let base = Prefix_range.base e.Prefix_list.range in
      let base_str = Prefix.to_string base in
      let marker = "route-filter " ^ base_str in
      let replaced = ref false in
      let keep l =
        if Substring.contains ~sub:marker l then
          if !replaced then None
          else begin
            replaced := true;
            (* Preserve indentation. *)
            let indent =
              let rec count i = if i < String.length l && l.[i] = ' ' then count (i + 1) else i in
              String.make (count 0) ' '
            in
            Some (indent ^ "prefix-list " ^ list_name ^ ";")
          end
        else Some l
      in
      let invalid_def =
        Printf.sprintf "policy-options {\n    prefix-list %s {\n        %s-32;\n    }\n}\n"
          list_name base_str
      in
      append (List.filter_map keep lines) invalid_def

let apply_cli_keywords lines = "configure terminal" :: append lines "end\nwrite memory\n"

let apply_neighbor_outside_bgp addr lines =
  let attachment = "neighbor " ^ Netcore.Ipv4.to_string addr ^ " route-map" in
  let is_export_attachment l =
    Substring.contains ~sub:attachment l && Substring.contains ~sub:" out" l
  in
  match List.partition is_export_attachment lines with
  | [], _ -> lines
  | line :: _, rest -> append rest (String.trim line ^ "\n")

(* A run of match-community-literal faults, applied in one pass. Each fault
   rewrites the first [match community LIST] line of the stanzas headed
   [route-map MAP ACTION SEQ] to match the list's first community instead.
   The stanzas of distinct (MAP, SEQ) targets are disjoint, and a rewritten
   line is such a line again, so the next fault on the same target rewrites
   it once more: the pass gives what applying the faults one by one gives. *)
let apply_match_community_literals (correct : Config_ir.t) targets lines =
  let pending = Hashtbl.create 16 in
  List.iter
    (fun (map_name, seq) ->
      let key = (map_name, string_of_int seq) in
      Hashtbl.replace pending key (1 + Option.value ~default:0 (Hashtbl.find_opt pending key)))
    targets;
  let left = ref (List.length targets) in
  let is_header l = String.length l > 0 && l.[0] <> ' ' in
  (* Only a header that may name a target is split into words; a run of
     one map's faults, a single-fault render among them, keeps the cheaper
     test for that map's name. *)
  let may_name =
    match List.sort_uniq compare (List.map fst targets) with
    | [ map_name ] -> Substring.contains ~sub:map_name
    | _ -> Substring.contains ~sub:"route-map"
  in
  let stanza l =
    if may_name l then
      match Cisco.Parser.tokens l with
      | [ "route-map"; name; _; s ] when Hashtbl.mem pending (name, s) -> Some (name, s)
      | _ -> None
    else None
  in
  let literal_of list_name =
    match Config_ir.find_community_list correct list_name with
    | Some { Community_list.entries = { Community_list.communities = c :: _; _ } :: _; _ } ->
        Community.to_string c
    | _ -> "100:1"
  in
  let listed l =
    if Substring.contains ~sub:"match community " l then
      match String.split_on_char ' ' (String.trim l) with
      | [ "match"; "community"; name ] -> Some name
      | _ -> None
    else None
  in
  (* [l] under every fault left on [key] while it stays a match line. *)
  let rec rewrite key l =
    let n = Hashtbl.find pending key in
    match listed l with
    | Some name when n > 0 ->
        Hashtbl.replace pending key (n - 1);
        decr left;
        rewrite key (" match community " ^ literal_of name)
    | _ -> l
  in
  let rec go acc key = function
    | [] -> List.rev acc
    | rest when !left = 0 -> List.rev_append acc rest
    | l :: rest ->
        let key = if is_header l then stanza l else key in
        let l = match key with Some key -> rewrite key l | None -> l in
        go (l :: acc) key rest
  in
  go [] None lines

let apply_text (correct : Config_ir.t) lines (fault : t) =
  match (fault.class_, fault.target) with
  | Error_class.Missing_local_as, _ -> apply_missing_local_as lines
  | Error_class.Bad_prefix_list_syntax, Named_list n -> apply_bad_prefix_list correct n lines
  | Error_class.Cli_keywords, _ -> apply_cli_keywords lines
  | Error_class.Neighbor_outside_bgp, Neighbor a -> apply_neighbor_outside_bgp a lines
  | _ -> lines

(* The text faults in order, each consecutive run of match-community-literal
   faults taken in one pass. *)
let rec apply_texts (correct : Config_ir.t) lines = function
  | [] -> lines
  | { class_ = Error_class.Match_community_literal; target = Policy_entry _ } :: _ as faults ->
      let rec run targets = function
        | { class_ = Error_class.Match_community_literal; target = Policy_entry (m, s) } :: rest ->
            run ((m, s) :: targets) rest
        | rest -> (targets, rest)
      in
      let targets, rest = run [] faults in
      apply_texts correct (apply_match_community_literals correct targets lines) rest
  | fault :: rest -> apply_texts correct (apply_text correct lines fault) rest

let is_text_fault (fault : t) =
  match fault.class_ with
  | Error_class.Missing_local_as | Error_class.Bad_prefix_list_syntax
  | Error_class.Cli_keywords | Error_class.Neighbor_outside_bgp
  | Error_class.Match_community_literal ->
      true
  | _ -> false

let render dialect (correct : Config_ir.t) faults =
  let ir_faults, text_faults = List.partition (fun f -> not (is_text_fault f)) faults in
  let ir = List.fold_left apply_ir correct ir_faults in
  let text =
    match dialect with
    | Cisco_cfg -> Cisco.Printer.print ir
    | Junos_cfg -> Juniper.Printer.print ir
  in
  match text_faults with
  | [] -> text
  | _ -> String.concat "\n" (apply_texts correct (String.split_on_char '\n' text) text_faults)
