open Netcore
open Policy

type direction = Import | Export

type structural =
  | Missing_neighbor of { addr : Ipv4.t; missing_in_translation : bool }
  | Missing_acl_attachment of {
      iface : Iface.t;
      direction : direction;
      missing_in_translation : bool;
    }
  | Missing_policy of {
      neighbor : Ipv4.t;
      direction : direction;
      missing_in_translation : bool;
    }
  | Missing_network of { network : Prefix.t; missing_in_translation : bool }
  | Missing_bgp_process of { missing_in_translation : bool }
  | Missing_ospf_interface of { iface : Iface.t; missing_in_translation : bool }

type attribute = {
  component : string;
  translated_component : string;
  attribute : string;
  original_value : string;
  translated_value : string;
}

type behavior = {
  policy : string;
  neighbor : Ipv4.t option;
  direction : direction;
  example : Route.t;
  original_action : Action.t;
  translated_action : Action.t;
  is_redistribution : bool;
  effect_detail : (string * string * string) list;
}

type acl_behavior = {
  acl : string;
  iface : Iface.t;
  acl_direction : direction;
  packet : Packet.t;
  original_packet_action : Action.t;
  translated_packet_action : Action.t;
}

type finding =
  | Structural of structural
  | Attribute of attribute
  | Behavior of behavior
  | Acl_behavior of acl_behavior

let direction_to_string = function Import -> "import" | Export -> "export"

(* ------------------------------------------------------------------ *)
(* Structural comparison                                               *)
(* ------------------------------------------------------------------ *)

let neighbors_of (c : Config_ir.t) =
  match c.Config_ir.bgp with None -> [] | Some b -> b.Config_ir.neighbors

let networks_of (c : Config_ir.t) =
  match c.Config_ir.bgp with None -> [] | Some b -> b.Config_ir.networks

let ospf_interfaces_of (c : Config_ir.t) =
  match c.Config_ir.ospf with None -> [] | Some o -> o.Config_ir.interfaces

let structural_findings ~original ~translation =
  let fs = ref [] in
  let add f = fs := Structural f :: !fs in
  (match (original.Config_ir.bgp, translation.Config_ir.bgp) with
  | Some _, None -> add (Missing_bgp_process { missing_in_translation = true })
  | None, Some _ -> add (Missing_bgp_process { missing_in_translation = false })
  | _ -> ());
  let no = neighbors_of original and nt = neighbors_of translation in
  let find list addr =
    List.find_opt (fun (n : Config_ir.neighbor) -> Ipv4.equal n.Config_ir.addr addr) list
  in
  List.iter
    (fun (n : Config_ir.neighbor) ->
      match find nt n.Config_ir.addr with
      | None ->
          add (Missing_neighbor { addr = n.Config_ir.addr; missing_in_translation = true })
      | Some n' ->
          let policy_presence dir p p' =
            match (p, p') with
            | Some _, None ->
                add
                  (Missing_policy
                     {
                       neighbor = n.Config_ir.addr;
                       direction = dir;
                       missing_in_translation = true;
                     })
            | None, Some _ ->
                add
                  (Missing_policy
                     {
                       neighbor = n.Config_ir.addr;
                       direction = dir;
                       missing_in_translation = false;
                     })
            | _ -> ()
          in
          policy_presence Import n.Config_ir.import_policy n'.Config_ir.import_policy;
          policy_presence Export n.Config_ir.export_policy n'.Config_ir.export_policy)
    no;
  List.iter
    (fun (n : Config_ir.neighbor) ->
      if find no n.Config_ir.addr = None then
        add (Missing_neighbor { addr = n.Config_ir.addr; missing_in_translation = false }))
    nt;
  let nets_o = networks_of original and nets_t = networks_of translation in
  List.iter
    (fun p ->
      if not (List.exists (Prefix.equal p) nets_t) then
        add (Missing_network { network = p; missing_in_translation = true }))
    nets_o;
  List.iter
    (fun p ->
      if not (List.exists (Prefix.equal p) nets_o) then
        add (Missing_network { network = p; missing_in_translation = false }))
    nets_t;
  let oi_o = ospf_interfaces_of original and oi_t = ospf_interfaces_of translation in
  let has list iface =
    List.exists (fun (oi : Config_ir.ospf_interface) -> Iface.equal oi.Config_ir.iface iface) list
  in
  List.iter
    (fun (oi : Config_ir.ospf_interface) ->
      if not (has oi_t oi.Config_ir.iface) then
        add (Missing_ospf_interface { iface = oi.Config_ir.iface; missing_in_translation = true }))
    oi_o;
  List.iter
    (fun (oi : Config_ir.ospf_interface) ->
      if not (has oi_o oi.Config_ir.iface) then
        add
          (Missing_ospf_interface { iface = oi.Config_ir.iface; missing_in_translation = false }))
    oi_t;
  (* ACL attachments per interface and direction. *)
  List.iter
    (fun (i : Config_ir.interface) ->
      match Config_ir.find_interface translation i.Config_ir.iface with
      | None -> ()
      | Some i' ->
          let attach dir a a' =
            match (a, a') with
            | Some _, None ->
                add
                  (Missing_acl_attachment
                     { iface = i.Config_ir.iface; direction = dir; missing_in_translation = true })
            | None, Some _ ->
                add
                  (Missing_acl_attachment
                     {
                       iface = i.Config_ir.iface;
                       direction = dir;
                       missing_in_translation = false;
                     })
            | _ -> ()
          in
          attach Import i.Config_ir.acl_in i'.Config_ir.acl_in;
          attach Export i.Config_ir.acl_out i'.Config_ir.acl_out)
    original.Config_ir.interfaces;
  List.rev !fs

(* ------------------------------------------------------------------ *)
(* Attribute comparison                                                *)
(* ------------------------------------------------------------------ *)

let attribute_findings ~original ~translation =
  let fs = ref [] in
  let add component translated_component attribute original_value translated_value =
    fs :=
      Attribute { component; translated_component; attribute; original_value; translated_value }
      :: !fs
  in
  (match (original.Config_ir.bgp, translation.Config_ir.bgp) with
  | Some bo, Some bt ->
      if bo.Config_ir.asn <> bt.Config_ir.asn && bt.Config_ir.asn > 0 then
        add "BGP process" "BGP process" "local AS"
          (string_of_int bo.Config_ir.asn)
          (string_of_int bt.Config_ir.asn);
      (match (bo.Config_ir.router_id, bt.Config_ir.router_id) with
      | Some a, Some b when not (Ipv4.equal a b) ->
          add "BGP process" "BGP process" "router id" (Ipv4.to_string a) (Ipv4.to_string b)
      | _ -> ());
      List.iter
        (fun (n : Config_ir.neighbor) ->
          match Config_ir.find_neighbor bt n.Config_ir.addr with
          | Some n' when n'.Config_ir.remote_as <> n.Config_ir.remote_as ->
              add
                (Printf.sprintf "BGP neighbor %s" (Ipv4.to_string n.Config_ir.addr))
                (Printf.sprintf "BGP neighbor %s" (Ipv4.to_string n.Config_ir.addr))
                "remote AS"
                (string_of_int n.Config_ir.remote_as)
                (string_of_int n'.Config_ir.remote_as)
          | _ -> ())
        bo.Config_ir.neighbors
  | _ -> ());
  (* Interface addresses. *)
  List.iter
    (fun (i : Config_ir.interface) ->
      match Config_ir.find_interface translation i.Config_ir.iface with
      | Some i' when i.Config_ir.address <> i'.Config_ir.address ->
          let show = function
            | Some (a, l) -> Printf.sprintf "%s/%d" (Ipv4.to_string a) l
            | None -> "(none)"
          in
          add
            (Printf.sprintf "interface %s" (Iface.cisco_name i.Config_ir.iface))
            (Printf.sprintf "interface %s" (Iface.junos_name i.Config_ir.iface))
            "address"
            (show i.Config_ir.address)
            (show i'.Config_ir.address)
      | _ -> ())
    original.Config_ir.interfaces;
  (* OSPF per-interface settings on aligned interfaces; translation-side
     defaults differ from Cisco's, which is the Table 1 example. *)
  let oi_t = ospf_interfaces_of translation in
  List.iter
    (fun (oi : Config_ir.ospf_interface) ->
      match
        List.find_opt
          (fun (x : Config_ir.ospf_interface) -> Iface.equal x.Config_ir.iface oi.Config_ir.iface)
          oi_t
      with
      | None -> ()
      | Some oi' ->
          let cost_o =
            Option.value
              ~default:(Juniper.Translate.cisco_default_ospf_cost oi.Config_ir.iface)
              oi.Config_ir.cost
          in
          let cost_t =
            Option.value
              ~default:(Juniper.Translate.junos_default_ospf_metric oi'.Config_ir.iface)
              oi'.Config_ir.cost
          in
          if cost_o <> cost_t then
            add
              (Printf.sprintf "OSPF link for %s" (Iface.cisco_name oi.Config_ir.iface))
              (Iface.junos_name oi'.Config_ir.iface)
              "cost" (string_of_int cost_o) (string_of_int cost_t);
          if oi.Config_ir.passive <> oi'.Config_ir.passive then
            add
              (Printf.sprintf "OSPF link for %s" (Iface.cisco_name oi.Config_ir.iface))
              (Iface.junos_name oi'.Config_ir.iface)
              "passive interface"
              (string_of_bool oi.Config_ir.passive)
              (string_of_bool oi'.Config_ir.passive))
    (ospf_interfaces_of original);
  List.rev !fs

(* ------------------------------------------------------------------ *)
(* Memoised symbolic diffs                                             *)
(* ------------------------------------------------------------------ *)

(* The part of an environment a policy diff reads: the prefix and AS-path
   lists either map names, as {!Symbolic.Transfer.env_slice} keeps them
   (the witness search evaluates both maps' AS-path constraints against
   [env_a]); and every community list, since witnesses are decorated with
   communities drawn from all of them, so those are not filtered at all. *)
let env_slice (m_a : Route_map.t) (m_b : Route_map.t) (env : Eval.env) =
  let named = Symbolic.Transfer.env_slice [ m_a; m_b ] { env with Eval.community_lists = [] } in
  { named with Eval.community_lists = env.Eval.community_lists }

(* [Hashtbl.hash] stops after 10 meaningful values, which on these keys
   reach little past the map names: every draft that edits a later entry
   of the same map would land in one bucket, and each lookup would walk it
   with structural comparisons. *)
let deep_hash k = Hashtbl.hash_param 100 1000 k

module Policy_memo = Netcore.Memo_table.Make (struct
  type t = Route_map.t * Route_map.t * Eval.env * Eval.env

  let hash = deep_hash
end)

module Acl_memo = Netcore.Memo_table.Make (struct
  type t = Acl.t * Acl.t

  let hash = deep_hash
end)

(* A translation loop meets a few dozen distinct pairs of each kind. *)
let policy_memo = Policy_memo.create ~name:"diff_memo" ~cap:1024
let acl_memo = Acl_memo.create ~name:"diff_memo" ~cap:1024

let policy_key ~env_a ~env_b m_a m_b =
  (m_a, m_b, env_slice m_a m_b env_a, env_slice m_a m_b env_b)

let policy_key_hash ~env_a ~env_b m_a m_b = deep_hash (policy_key ~env_a ~env_b m_a m_b)

let diff_policies ~memo ~env_a ~env_b m_a m_b =
  let diff () = Symbolic.Policy_diff.compare_maps ~env_a ~env_b m_a m_b in
  if memo then Policy_memo.find policy_memo (policy_key ~env_a ~env_b m_a m_b) diff else diff ()

let diff_acls ~memo a b =
  let diff () = Symbolic.Acl_diff.compare_acls a b in
  if memo then Acl_memo.find acl_memo (a, b) diff else diff ()

(* ------------------------------------------------------------------ *)
(* Behavior comparison                                                 *)
(* ------------------------------------------------------------------ *)

let policy_of (c : Config_ir.t) name =
  match Config_ir.find_route_map c name with
  | Some m -> m
  | None ->
      (* Dangling attachment: behave like "no policy" (permit all), which is
         also what the simulator does. Lint reports the dangling name. *)
      Route_map.permit_all name

let behavior_findings ~memo ~original ~translation =
  let env_o = Eval.env_of_config original and env_t = Eval.env_of_config translation in
  let fs = ref [] in
  let compare_policies direction neighbor name_o name_t =
    let m_o = policy_of original name_o and m_t = policy_of translation name_t in
    List.iter
      (fun (d : Symbolic.Policy_diff.difference) ->
        match d.Symbolic.Policy_diff.example with
        | None -> ()
        | Some example ->
            let effect_detail =
              match d.Symbolic.Policy_diff.kind with
              | Symbolic.Policy_diff.Action_mismatch -> []
              | Symbolic.Policy_diff.Effect_mismatch fields -> fields
            in
            fs :=
              Behavior
                {
                  policy = name_o;
                  neighbor = Some neighbor;
                  direction;
                  example;
                  original_action = d.Symbolic.Policy_diff.action_a;
                  translated_action = d.Symbolic.Policy_diff.action_b;
                  is_redistribution = example.Route.source <> Route.Bgp;
                  effect_detail;
                }
              :: !fs)
      (diff_policies ~memo ~env_a:env_o ~env_b:env_t m_o m_t)
  in
  (match (original.Config_ir.bgp, translation.Config_ir.bgp) with
  | Some bo, Some bt ->
      List.iter
        (fun (n : Config_ir.neighbor) ->
          match Config_ir.find_neighbor bt n.Config_ir.addr with
          | None -> ()
          | Some n' ->
              (match (n.Config_ir.import_policy, n'.Config_ir.import_policy) with
              | Some p, Some p' -> compare_policies Import n.Config_ir.addr p p'
              | _ -> ());
              (match (n.Config_ir.export_policy, n'.Config_ir.export_policy) with
              | Some p, Some p' -> compare_policies Export n.Config_ir.addr p p'
              | _ -> ()))
        bo.Config_ir.neighbors
  | _ -> ());
  List.rev !fs

(* ------------------------------------------------------------------ *)
(* ACL behavior comparison                                             *)
(* ------------------------------------------------------------------ *)

let acl_of (c : Config_ir.t) name =
  match Config_ir.find_acl c name with
  | Some a -> a
  | None -> Acl.make name []  (* dangling attachment: implicit deny-all *)

let acl_findings ~memo ~original ~translation =
  let fs = ref [] in
  List.iter
    (fun (i : Config_ir.interface) ->
      match Config_ir.find_interface translation i.Config_ir.iface with
      | None -> ()
      | Some i' ->
          let compare_attached dir a a' =
            match (a, a') with
            | Some name_o, Some name_t ->
                List.iter
                  (fun (d : Symbolic.Acl_diff.difference) ->
                    fs :=
                      Acl_behavior
                        {
                          acl = name_o;
                          iface = i.Config_ir.iface;
                          acl_direction = dir;
                          packet = d.Symbolic.Acl_diff.example;
                          original_packet_action = d.Symbolic.Acl_diff.action_a;
                          translated_packet_action = d.Symbolic.Acl_diff.action_b;
                        }
                      :: !fs)
                  (diff_acls ~memo (acl_of original name_o) (acl_of translation name_t))
            | _ -> ()
          in
          compare_attached Import i.Config_ir.acl_in i'.Config_ir.acl_in;
          compare_attached Export i.Config_ir.acl_out i'.Config_ir.acl_out)
    original.Config_ir.interfaces;
  List.rev !fs

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let findings ~memo ~original ~translation =
  (* Normalize the Cisco side so redistribution, OSPF area membership and
     default costs are expressed the same way on both sides. *)
  let original = Juniper.Translate.of_cisco_ir original in
  structural_findings ~original ~translation
  @ attribute_findings ~original ~translation
  @ behavior_findings ~memo ~original ~translation
  @ acl_findings ~memo ~original ~translation

let compare = findings ~memo:false
let check = findings ~memo:true

let finding_to_string = function
  | Structural s -> (
      let side b = if b then "the translation" else "the original" in
      match s with
      | Missing_neighbor { addr; missing_in_translation } ->
          Printf.sprintf "BGP neighbor %s is missing in %s" (Ipv4.to_string addr)
            (side missing_in_translation)
      | Missing_policy { neighbor; direction; missing_in_translation } ->
          Printf.sprintf "%s route map for BGP neighbor %s is missing in %s"
            (direction_to_string direction)
            (Ipv4.to_string neighbor)
            (side missing_in_translation)
      | Missing_network { network; missing_in_translation } ->
          Printf.sprintf "network %s is missing in %s" (Prefix.to_string network)
            (side missing_in_translation)
      | Missing_bgp_process { missing_in_translation } ->
          Printf.sprintf "the BGP process is missing in %s" (side missing_in_translation)
      | Missing_ospf_interface { iface; missing_in_translation } ->
          Printf.sprintf "OSPF on interface %s is missing in %s" (Iface.cisco_name iface)
            (side missing_in_translation)
      | Missing_acl_attachment { iface; direction; missing_in_translation } ->
          Printf.sprintf "the %s access list on interface %s is missing in %s"
            (direction_to_string direction)
            (Iface.cisco_name iface)
            (side missing_in_translation))
  | Attribute a ->
      Printf.sprintf "%s: %s is %s in the original but %s in the translation (%s)"
        a.component a.attribute a.original_value a.translated_value a.translated_component
  | Behavior b ->
      Printf.sprintf
        "policy %s (%s%s): for %s the original %ss but the translation %ss%s%s"
        b.policy
        (direction_to_string b.direction)
        (match b.neighbor with
        | Some n -> " for neighbor " ^ Ipv4.to_string n
        | None -> "")
        (Prefix.to_string b.example.Route.prefix)
        (Action.to_string b.original_action)
        (Action.to_string b.translated_action)
        (if b.is_redistribution then " [redistribution]" else "")
        (match b.effect_detail with
        | [] -> ""
        | fields ->
            " — "
            ^ String.concat ", "
                (List.map (fun (f, a, b) -> Printf.sprintf "%s: %s vs %s" f a b) fields))
  | Acl_behavior a ->
      let verdict = function
        | Action.Permit -> "permitted"
        | Action.Deny -> "denied"
      in
      Printf.sprintf
        "access list %s on %s (%s): the packet [%s] is %s by the original but %s \
         by the translation"
        a.acl (Iface.cisco_name a.iface)
        (direction_to_string a.acl_direction)
        (Packet.to_string a.packet)
        (verdict a.original_packet_action)
        (verdict a.translated_packet_action)
