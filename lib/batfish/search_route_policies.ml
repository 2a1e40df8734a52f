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

type verdict_key = { map : Route_map.t; env : Eval.env; specs : spec list }

(* The lists the verdict reads: those the map names, which compiling it
   reads, and the AS-path lists the specs' spaces name, which witness
   sampling looks up by name. *)
let verdict_key env map specs =
  let as_path_lists =
    List.concat_map (fun spec -> Symbolic.Pred.as_path_lists_referenced spec.space) specs
  in
  { map; env = Symbolic.Transfer.env_slice ~as_path_lists [ map ] env; specs }

(* Computed from the key alone, so a key that matches is the whole input. *)
let verdicts { map; env; specs } =
  let regions = Symbolic.Transfer.compile env map in
  List.map (check_regions env regions) specs

(* A hub carries n ingress and n^2 egress specs over 2n route maps, so the
   specs are grouped by map, each map is looked up once per call, and its
   verdicts are handed back to the specs in their order. *)
let check_with ~lookup (config : Config_ir.t) specs =
  let env = Eval.env_of_config config in
  let groups = Hashtbl.create 16 in
  List.iter
    (fun spec ->
      let group = Option.value ~default:[] (Hashtbl.find_opt groups spec.policy) in
      Hashtbl.replace groups spec.policy (spec :: group))
    (List.rev specs);
  let pending = Hashtbl.create 16 in
  let next spec =
    let outcomes =
      match Hashtbl.find_opt pending spec.policy with
      | Some outcomes -> outcomes
      | None -> (
          let group = Hashtbl.find groups spec.policy in
          match Config_ir.find_route_map config spec.policy with
          | None -> List.map (fun _ -> Policy_missing) group
          | Some map ->
              let key = verdict_key env map group in
              lookup key (fun () -> verdicts key))
    in
    match outcomes with
    | outcome :: rest ->
        Hashtbl.replace pending spec.policy rest;
        (spec, outcome)
    | [] -> assert false
  in
  List.map next specs

let check_all config specs = check_with ~lookup:(fun _ verdicts -> verdicts ()) config specs

let check config spec = snd (List.hd (check_all config [ spec ]))

let violations outcomes =
  List.filter_map (function _, Violated v -> Some v | _, (Holds | Policy_missing) -> None) outcomes
