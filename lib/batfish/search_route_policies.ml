open Netcore
open Policy

type requirement =
  | Permits
  | Denies
  | Adds_community of Community.t
  | Prepends of int list

type spec = {
  policy : string;
  space : Symbolic.Pred.t;
  requirement : requirement;
  description : string;
}

type violation = {
  spec : spec;
  example : Route.t;
  got_action : Action.t;
  at_seq : int option;
  replaced_communities : bool;
}

type outcome = Holds | Violated of violation | Policy_missing

let requirement_to_string = function
  | Permits -> "be permitted"
  | Denies -> "be denied"
  | Adds_community c ->
      Printf.sprintf "be permitted with community %s added (additively)"
        (Community.to_string c)
  | Prepends asns ->
      Printf.sprintf "be permitted with AS path prepended by %s"
        (String.concat " " (List.map string_of_int asns))

(* Whether one region's behaviour satisfies the requirement. *)
let region_ok requirement (r : Symbolic.Transfer.region) =
  match requirement with
  | Permits -> r.action = Action.Permit
  | Denies -> r.action = Action.Deny
  | Adds_community c ->
      r.action = Action.Permit
      && r.effect_.Symbolic.Effects.comm_base = None
      && Community.Set.mem c r.effect_.Symbolic.Effects.comm_added
  | Prepends asns ->
      r.action = Action.Permit && r.effect_.Symbolic.Effects.prepend = asns

(* The first region that breaks the spec's requirement on some route in
   its space, as a violation with a concrete example route. *)
let check_regions env regions spec =
  let bad =
    List.find_map
      (fun (r : Symbolic.Transfer.region) ->
        if region_ok spec.requirement r then None
        else
          let overlap = Symbolic.Pred.inter r.space spec.space in
          if Symbolic.Pred.is_empty overlap then None
          else
            match Symbolic.Pred.sample ~env overlap with
            | Some example -> Some (r, example)
            | None -> None)
      regions
  in
  match bad with
  | None -> Holds
  | Some (region, example) ->
      let replaced =
        match spec.requirement with
        | Adds_community _ ->
            region.action = Action.Permit
            && region.effect_.Symbolic.Effects.comm_base <> None
        | Permits | Denies | Prepends _ -> false
      in
      Violated
        {
          spec;
          example;
          got_action = region.action;
          at_seq = region.seq;
          replaced_communities = replaced;
        }

(* A hub carries n ingress and n^2 egress specs over 2n route maps, so each
   map is compiled once per call and its regions serve every spec naming it. *)
let check_all (config : Config_ir.t) specs =
  let env = Eval.env_of_config config in
  let compiled = Hashtbl.create 16 in
  let regions_of policy =
    match Hashtbl.find_opt compiled policy with
    | Some regions -> regions
    | None ->
        let regions =
          Option.map (Symbolic.Transfer.compile env) (Config_ir.find_route_map config policy)
        in
        Hashtbl.add compiled policy regions;
        regions
  in
  List.map
    (fun spec ->
      ( spec,
        match regions_of spec.policy with
        | None -> Policy_missing
        | Some regions -> check_regions env regions spec ))
    specs

let check config spec = snd (List.hd (check_all config [ spec ]))

let violations outcomes =
  List.filter_map (function _, Violated v -> Some v | _, (Holds | Policy_missing) -> None) outcomes
