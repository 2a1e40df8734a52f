type t = {
  runtime : Runtime.t;
  parse :
    ( Batfish.Parse_check.dialect * string,
      Policy.Config_ir.t * Netcore.Diag.t list )
    Verifier.t;
  campion :
    (Policy.Config_ir.t * Policy.Config_ir.t, Campion.Differ.finding list) Verifier.t;
  topology :
    ( Netcore.Topology.t * string * Policy.Config_ir.t,
      Topoverify.Verifier.finding list )
    Verifier.t;
  route_policies :
    ( Policy.Config_ir.t * Batfish.Search_route_policies.spec list,
      (Batfish.Search_route_policies.spec * Batfish.Search_route_policies.outcome) list
    )
    Verifier.t;
}

let make runtime =
  let arm ~dirty kind oracle = Runtime.arm runtime (Verifier.wrap ~dirty kind oracle) in
  let differ = Campion.Differ.checker () in
  {
    runtime;
    parse =
      arm Verifier.Parse_check
        ~dirty:(fun (_, diags) -> List.exists Netcore.Diag.is_error diags)
        (fun (dialect, text) -> Exec.Memo.check dialect text);
    campion =
      arm Verifier.Campion
        ~dirty:(fun findings -> findings <> [])
        (fun (original, translation) -> Campion.Differ.check differ ~original ~translation);
    topology =
      arm Verifier.Topology
        ~dirty:(fun findings -> findings <> [])
        (fun (topo, router, ir) -> Topoverify.Verifier.check topo ~router ir);
    route_policies =
      arm Verifier.Route_policies
        ~dirty:(fun outcomes -> Batfish.Search_route_policies.violations outcomes <> [])
        (fun (ir, specs) -> Batfish.Search_route_policies.check_all ir specs);
  }
