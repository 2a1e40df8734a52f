type t = {
  runtime : Runtime.t;
  parse :
    ( Batfish.Parse_check.dialect * Netcore.Draft.t,
      Policy.Config_ir.t * Netcore.Diag.t list )
    Verifier.t;
  campion :
    ( (Netcore.Draft.t * Policy.Config_ir.t) * (Netcore.Draft.t * Policy.Config_ir.t),
      Campion.Differ.finding list )
    Verifier.t;
  topology :
    ( Netcore.Topology.t * string * Netcore.Draft.t * Policy.Config_ir.t,
      Topoverify.Verifier.finding list )
    Verifier.t;
  route_policies :
    ( Netcore.Draft.t * Batfish.Search_route_policies.spec list,
      (Batfish.Search_route_policies.spec * Batfish.Search_route_policies.outcome) list
    )
    Verifier.t;
}

let make runtime =
  let arm ~dirty kind oracle = Runtime.arm runtime (Verifier.wrap ~dirty kind oracle) in
  {
    runtime;
    parse =
      arm Verifier.Parse_check
        ~dirty:(fun (_, diags) -> List.exists Netcore.Diag.is_error diags)
        (fun (dialect, draft) -> Exec.Memo.check_draft dialect draft);
    campion =
      arm Verifier.Campion
        ~dirty:(fun findings -> findings <> [])
        (fun (original, translation) -> Campion.Differ.check_draft ~original ~translation);
    topology =
      arm Verifier.Topology
        ~dirty:(fun findings -> findings <> [])
        (fun (topo, router, draft, ir) -> Topoverify.Verifier.check_draft topo ~router draft ir);
    route_policies =
      arm Verifier.Route_policies
        ~dirty:(fun outcomes -> Batfish.Search_route_policies.violations outcomes <> [])
        (fun (draft, specs) -> Exec.Memo.route_policies_of_draft draft specs);
  }
