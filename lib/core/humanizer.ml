open Netcore

type prompt = { text : string; refs : Llmsim.Fault.t list }

(* First whitespace-delimited token following [after] in [s]. *)
let token_after ~after s =
  match Substring.find ~sub:after s with
  | None -> None
  | Some i ->
      let start = i + String.length after in
      let rest = String.trim (String.sub s start (String.length s - start)) in
      let stop =
        match String.index_opt rest ' ' with Some i -> i | None -> String.length rest
      in
      let tok = String.sub rest 0 stop in
      let tok =
        (* Strip trailing punctuation from prose. *)
        let n = String.length tok in
        if n > 0 && (tok.[n - 1] = '\'' || tok.[n - 1] = ':' || tok.[n - 1] = ';') then
          String.sub tok 0 (n - 1)
        else tok
      in
      if tok = "" then None else Some tok

let fault = Llmsim.Fault.make

let infer_syntax_refs message =
  let open Llmsim in
  let says sub = Substring.contains ~sub message in
  if says "no local AS" || says "local-as" then
    [ fault Error_class.Missing_local_as Fault.Whole_config ]
  else if
    says "not valid Juniper syntax" || (says "route-filter" && says "not valid syntax")
  then
    match token_after ~after:"prefix-list " message with
    | Some name -> [ fault Error_class.Bad_prefix_list_syntax (Fault.Named_list name) ]
    | None -> [ fault Error_class.Bad_prefix_list_syntax Fault.Whole_config ]
  else if says "interactive CLI command" then
    [ fault Error_class.Cli_keywords Fault.Whole_config ]
  else if says "'match community" && says "is invalid" then
    [ fault Error_class.Match_community_literal Fault.Whole_config ]
  else if says "only valid inside a 'router bgp'" then
    match token_after ~after:"neighbor " message with
    | Some addr -> (
        match Ipv4.of_string addr with
        | Some a -> [ fault Error_class.Neighbor_outside_bgp (Fault.Neighbor a) ]
        | None -> [ fault Error_class.Neighbor_outside_bgp Fault.Whole_config ])
    | None -> [ fault Error_class.Neighbor_outside_bgp Fault.Whole_config ]
  else []

let of_diag (d : Diag.t) =
  {
    text = Printf.sprintf "There is a syntax error: '%s'" d.Diag.message;
    refs = infer_syntax_refs d.Diag.message;
  }

(* ------------------------------------------------------------------ *)
(* Campion findings -> Table 1 templates                               *)
(* ------------------------------------------------------------------ *)

let of_campion (f : Campion.Differ.finding) =
  let open Llmsim in
  match f with
  | Campion.Differ.Structural s -> (
      match s with
      | Campion.Differ.Missing_policy { neighbor; direction; missing_in_translation } ->
          let dir = Campion.Differ.direction_to_string direction in
          let text =
            if missing_in_translation then
              Printf.sprintf
                "In the original configuration, there is an %s route map for bgp \
                 neighbor %s, but in the translation, there is no corresponding \
                 route map"
                dir (Ipv4.to_string neighbor)
            else
              Printf.sprintf
                "In the translation, there is an %s route map for bgp neighbor %s, \
                 but in the original configuration, there is no corresponding route \
                 map; remove it or align it with the original"
                dir (Ipv4.to_string neighbor)
          in
          let cls =
            match direction with
            | Campion.Differ.Import -> Error_class.Missing_import_policy
            | Campion.Differ.Export -> Error_class.Missing_export_policy
          in
          { text; refs = [ fault cls (Fault.Neighbor neighbor) ] }
      | Campion.Differ.Missing_acl_attachment _ as other ->
          {
            text = Campion.Differ.finding_to_string (Campion.Differ.Structural other);
            refs = [];
          }
      | other ->
          { text = Campion.Differ.finding_to_string (Campion.Differ.Structural other); refs = [] })
  | Campion.Differ.Attribute a ->
      let text =
        Printf.sprintf
          "In the original configuration, the %s has %s set to %s, but in the \
           translation, the corresponding link to %s has %s set to %s"
          a.Campion.Differ.component a.Campion.Differ.attribute
          a.Campion.Differ.original_value a.Campion.Differ.translated_component
          a.Campion.Differ.attribute a.Campion.Differ.translated_value
      in
      let refs =
        let iface_of_component () =
          Option.bind
            (token_after ~after:"OSPF link for " a.Campion.Differ.component)
            Iface.of_cisco
        in
        match a.Campion.Differ.attribute with
        | "cost" -> (
            match iface_of_component () with
            | Some i -> [ fault Error_class.Ospf_cost_wrong (Fault.Interface i) ]
            | None -> [ fault Error_class.Ospf_cost_wrong Fault.Whole_config ])
        | "passive interface" -> (
            match iface_of_component () with
            | Some i -> [ fault Error_class.Ospf_passive_wrong (Fault.Interface i) ]
            | None -> [ fault Error_class.Ospf_passive_wrong Fault.Whole_config ])
        | _ -> []
      in
      { text; refs }
  | Campion.Differ.Behavior b ->
      let action a = String.uppercase_ascii (Policy.Action.to_string a) in
      let neighbor =
        match b.Campion.Differ.neighbor with
        | Some n -> Printf.sprintf " for BGP neighbor %s" (Ipv4.to_string n)
        | None -> ""
      in
      let dir =
        match b.Campion.Differ.direction with
        | Campion.Differ.Import -> "import"
        | Campion.Differ.Export -> "export"
      in
      let base =
        Printf.sprintf
          "In the original configuration, for the prefix %s, the BGP %s policy %s%s \
           performs the following action: %s. But, in the translation, the \
           corresponding BGP %s policy %s performs the following action: %s"
          (Prefix.to_string b.Campion.Differ.example.Route.prefix)
          dir b.Campion.Differ.policy neighbor
          (action b.Campion.Differ.original_action)
          dir b.Campion.Differ.policy
          (action b.Campion.Differ.translated_action)
      in
      let text =
        match b.Campion.Differ.effect_detail with
        | [] ->
            if b.Campion.Differ.is_redistribution then
              base
              ^ Printf.sprintf " (the example route was learned from %s, not BGP)"
                  (Route.source_to_string b.Campion.Differ.example.Route.source)
            else base
        | fields ->
            base ^ ", with "
            ^ String.concat ", "
                (List.map
                   (fun (attr, o, t) ->
                     Printf.sprintf "%s %s in the original but %s in the translation"
                       attr o t)
                   fields)
      in
      (* A behavior difference can stem from several latent mistakes (a
         dropped prefix range shifts regions and shows up as a MED or
         redistribution difference), so the prompt carries every plausible
         class; the conversation resolves whichever is actually present. *)
      let refs =
        if b.Campion.Differ.is_redistribution then
          [
            fault Error_class.Redistribution_unscoped Fault.Whole_config;
            fault Error_class.Prefix_range_dropped Fault.Whole_config;
          ]
        else if
          List.exists (fun (attr, _, _) -> attr = "MED") b.Campion.Differ.effect_detail
        then
          [
            fault Error_class.Wrong_med (Fault.Policy b.Campion.Differ.policy);
            fault Error_class.Prefix_range_dropped Fault.Whole_config;
          ]
        else
          [
            fault Error_class.Prefix_range_dropped Fault.Whole_config;
            fault Error_class.Wrong_med (Fault.Policy b.Campion.Differ.policy);
          ]
      in
      { text; refs }
  | Campion.Differ.Acl_behavior a ->
      let action x = String.uppercase_ascii (Policy.Action.to_string x) in
      let text =
        Printf.sprintf
          "In the original configuration, the access list %s applied %s on \
           interface %s performs the following action on the packet [%s]: %s. \
           But, in the translation, the corresponding firewall filter performs \
           the following action: %s"
          a.Campion.Differ.acl
          (Campion.Differ.direction_to_string a.Campion.Differ.acl_direction)
          (Iface.cisco_name a.Campion.Differ.iface)
          (Packet.to_string a.Campion.Differ.packet)
          (action a.Campion.Differ.original_packet_action)
          (action a.Campion.Differ.translated_packet_action)
      in
      let refs =
        [
          fault Error_class.Acl_action_flipped (Fault.Named_list a.Campion.Differ.acl);
          fault Error_class.Acl_entry_dropped (Fault.Named_list a.Campion.Differ.acl);
          fault Error_class.Acl_wrong_port (Fault.Named_list a.Campion.Differ.acl);
        ]
      in
      { text; refs }

(* ------------------------------------------------------------------ *)
(* Topology verifier findings -> Table 3                               *)
(* ------------------------------------------------------------------ *)

let of_topology (f : Topoverify.Verifier.finding) =
  let open Llmsim in
  let refs =
    match f.Topoverify.Verifier.kind with
    | Topoverify.Verifier.Interface_address_mismatch
    | Topoverify.Verifier.Missing_interface -> (
        match f.Topoverify.Verifier.iface with
        | Some i -> [ fault Error_class.Wrong_interface_ip (Fault.Interface i) ]
        | None -> [ fault Error_class.Wrong_interface_ip Fault.Whole_config ])
    | Topoverify.Verifier.Local_as_mismatch ->
        [ fault Error_class.Wrong_local_as Fault.Whole_config ]
    | Topoverify.Verifier.Router_id_mismatch ->
        [ fault Error_class.Wrong_router_id Fault.Whole_config ]
    | Topoverify.Verifier.Neighbor_not_declared -> (
        match f.Topoverify.Verifier.peer with
        | Some p -> [ fault Error_class.Missing_neighbor_decl (Fault.Neighbor p) ]
        | None -> [ fault Error_class.Missing_neighbor_decl Fault.Whole_config ])
    | Topoverify.Verifier.Incorrect_neighbor ->
        [ fault Error_class.Extra_neighbor_decl Fault.Whole_config ]
    | Topoverify.Verifier.Network_not_declared -> (
        match f.Topoverify.Verifier.network with
        | Some n -> [ fault Error_class.Missing_network_decl (Fault.Network n) ]
        | None -> [ fault Error_class.Missing_network_decl Fault.Whole_config ])
    | Topoverify.Verifier.Incorrect_network ->
        [ fault Error_class.Extra_network_decl Fault.Whole_config ]
    | Topoverify.Verifier.No_bgp_process -> []
  in
  { text = f.Topoverify.Verifier.message; refs }

(* ------------------------------------------------------------------ *)
(* Search-route-policies violations -> Table 3 semantic template       *)
(* ------------------------------------------------------------------ *)

let of_violation (v : Batfish.Search_route_policies.violation) =
  let open Llmsim in
  let spec = v.Batfish.Search_route_policies.spec in
  let comms = v.Batfish.Search_route_policies.example.Route.communities in
  let comm_text =
    if Community.Set.is_empty comms then "no communities"
    else Printf.sprintf "the community %s" (Community.Set.to_string comms)
  in
  match spec.Batfish.Search_route_policies.requirement with
  | Batfish.Search_route_policies.Denies ->
      {
        text =
          Printf.sprintf
            "The route-map %s permits routes that have %s. However, they should be \
             denied."
            spec.Batfish.Search_route_policies.policy comm_text;
        refs =
          (* The two ways a deny requirement breaks: AND/OR confusion, or an
             incrementally inserted term that bypasses the deny stanzas. *)
          [
            fault Error_class.And_or_confusion
              (Fault.Policy spec.Batfish.Search_route_policies.policy);
            fault Error_class.Policy_inserted_early
              (Fault.Policy spec.Batfish.Search_route_policies.policy);
          ];
      }
  | Batfish.Search_route_policies.Permits ->
      {
        text =
          Printf.sprintf
            "The route-map %s denies routes that have %s. However, they should be \
             permitted."
            spec.Batfish.Search_route_policies.policy comm_text;
        refs =
          [
            fault Error_class.And_or_confusion
              (Fault.Policy spec.Batfish.Search_route_policies.policy);
          ];
      }
  | Batfish.Search_route_policies.Prepends asns ->
      {
        text =
          Printf.sprintf
            "The route-map %s should prepend %s to the AS path of every route it \
             accepts, but for the route %s it does not; apply the prepend in this \
             route-map's final accepting term, after the existing deny stanzas."
            spec.Batfish.Search_route_policies.policy
            (String.concat " " (List.map string_of_int asns))
            (Prefix.to_string v.Batfish.Search_route_policies.example.Route.prefix);
        refs =
          [
            fault Error_class.Wrong_policy_modified
              (Fault.Policy spec.Batfish.Search_route_policies.policy);
            fault Error_class.Policy_inserted_early
              (Fault.Policy spec.Batfish.Search_route_policies.policy);
          ];
      }
  | Batfish.Search_route_policies.Adds_community c ->
      let detail =
        if v.Batfish.Search_route_policies.replaced_communities then
          "it replaces the communities already on the route instead of adding to \
           them; use the 'additive' keyword"
        else if v.Batfish.Search_route_policies.got_action = Policy.Action.Deny then
          "it denies the route instead"
        else "the community is not added"
      in
      {
        text =
          Printf.sprintf
            "The route-map %s should add the community %s to every route it accepts, \
             but for the route %s, %s."
            spec.Batfish.Search_route_policies.policy (Community.to_string c)
            (Prefix.to_string v.Batfish.Search_route_policies.example.Route.prefix)
            detail;
        refs =
          [
            fault Error_class.Community_not_additive
              (Fault.Policy spec.Batfish.Search_route_policies.policy);
          ];
      }

(* ------------------------------------------------------------------ *)
(* Whole-network counterexamples                                       *)
(* ------------------------------------------------------------------ *)

(* A guarded pipeline crash: the stage aborted on the draft itself (the
   parser, differ or sim raised), so there is no structured finding to
   template — the only sensible instruction is a rewrite. No fault refs:
   after [stall_threshold] identical attempts the loop gives up, so a
   persistent crasher bounds the transcript instead of spinning. *)
let of_crash (c : Resilience.Guard.crash) =
  {
    text =
      Printf.sprintf
        "The %s check could not process this configuration at all (internal \
         %s on input %s). The draft is malformed beyond analysis; discard it \
         and rewrite the configuration from scratch, keeping only well-formed \
         stanzas."
        c.Resilience.Guard.stage c.Resilience.Guard.constructor
        c.Resilience.Guard.fingerprint;
    refs = [];
  }

(* An oscillation escalation: the driver detected that the drafts are
   cycling and routes the current finding straight to the human, framed so
   the (simulated) operator breaks the cycle rather than replaying the
   same automated template. The original refs are kept — the cycle is the
   LLM's, not the finding's. *)
let of_oscillation ~period (p : prompt) =
  {
    text =
      Printf.sprintf
        "The conversation is going in circles: the last drafts repeat with \
         period %d instead of converging. Do not regenerate the previous \
         configuration; address this finding directly: %s"
        period p.text;
    refs = p.refs;
  }

let of_global_violations ~hub violations =
  let open Llmsim in
  let detail = match violations with v :: _ -> v | [] -> "the global policy fails" in
  {
    text =
      Printf.sprintf
        "The network-wide check failed: %s. Every router's configuration passes \
         its local checks, so re-examine which route-maps are attached to which \
         BGP neighbors on %s: the ingress route-map for each ISP must be the one \
         that adds that ISP's own community."
        detail hub;
    refs = [ fault Error_class.Crossed_policy_attachment Fault.Whole_config ];
  }
