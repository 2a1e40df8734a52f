open Netcore
open Policy

type refutation = {
  from_spoke : string;
  to_spoke : string;
  example : Route.t option;
}

type result =
  | Proved
  | Refuted of refutation
  | Inapplicable of string

let hub_session_policies (star : Star.t) hub_config spoke =
  let t = star.Star.topology in
  let session =
    List.find_opt
      (fun (s : Topology.session) -> s.Topology.peer_name = spoke)
      (Topology.sessions_of t star.Star.hub)
  in
  match (session, hub_config.Config_ir.bgp) with
  | Some s, Some b -> (
      match Config_ir.find_neighbor b s.Topology.peer_addr with
      | Some n -> Some (n.Config_ir.import_policy, n.Config_ir.export_policy)
      | None -> None)
  | _ -> None

let side_conditions (star : Star.t) configs =
  let problems = ref [] in
  let bad fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  (match List.assoc_opt star.Star.hub configs with
  | None -> bad "no configuration for hub %s" star.Star.hub
  | Some hub_config ->
      List.iter
        (fun spoke ->
          match hub_session_policies star hub_config spoke with
          | None -> bad "hub has no BGP session configured toward %s" spoke
          | Some (import, export) ->
              let check dir = function
                | None -> bad "hub session to %s has no %s policy" spoke dir
                | Some name ->
                    if Config_ir.find_route_map hub_config name = None then
                      bad "hub %s policy %s toward %s is undefined" dir name spoke
              in
              check "import" import;
              check "export" export)
        star.Star.spokes;
      (* The hub must not originate an ISP network itself. *)
      (match hub_config.Config_ir.bgp with
      | Some b ->
          List.iter
            (fun net ->
              List.iter
                (fun spoke ->
                  match Star.isp_prefix star spoke with
                  | Some p when Prefix.equal p net ->
                      bad "hub originates ISP %s's network %s" spoke (Prefix.to_string p)
                  | _ -> ())
                star.Star.spokes)
            b.Config_ir.networks
      | None -> bad "hub has no BGP process"));
  List.rev !problems

let prove_no_transit (star : Star.t) configs =
  match side_conditions star configs with
  | p :: _ -> Inapplicable p
  | [] -> (
      let hub_config = List.assoc star.Star.hub configs in
      let env = Eval.env_of_config hub_config in
      let compile name =
        Symbolic.Transfer.compile env (Option.get (Config_ir.find_route_map hub_config name))
      in
      (* For every ordered spoke pair (i, j): any route entering from i and
         surviving the import policy must be denied by the export policy
         toward j. The input space is the full route space — no assumption
         about what ISPs announce. Each session's export map is compiled,
         and its import map's image of that space computed, at most once
         per proof, on first use. *)
      let sessions =
        List.map
          (fun spoke ->
            let import, export =
              Option.value ~default:(None, None) (hub_session_policies star hub_config spoke)
            in
            ( spoke,
              Option.map
                (fun name -> lazy (Symbolic.Compose.image (compile name) Symbolic.Pred.full))
                import,
              Option.map (fun name -> lazy (compile name)) export ))
          star.Star.spokes
      in
      let refutation =
        List.find_map
          (fun (from_spoke, imported, _) ->
            match imported with
            | Some imported ->
                List.find_map
                  (fun (to_spoke, _, export) ->
                    if to_spoke = from_spoke then None
                    else
                      match export with
                      | Some export ->
                          let escaping =
                            Symbolic.Compose.permits (Lazy.force export) (Lazy.force imported)
                          in
                          if Symbolic.Pred.is_empty escaping then None
                          else
                            Some
                              {
                                from_spoke;
                                to_spoke;
                                example = Symbolic.Pred.sample ~env escaping;
                              }
                      | None -> None)
                  sessions
            | None -> None)
          sessions
      in
      match refutation with None -> Proved | Some r -> Refuted r)
