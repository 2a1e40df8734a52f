open Netcore
open Policy

type kind =
  | Action_mismatch
  | Effect_mismatch of (string * string * string) list

type difference = {
  space : Pred.t;
  example : Route.t option;
  action_a : Action.t;
  action_b : Action.t;
  seq_a : int option;
  seq_b : int option;
  kind : kind;
}

(* A sampled witness from an effect-mismatch region can still evaluate
   identically under both maps (e.g. "set community" replace vs. additive
   coincide on a route with no communities). Decorate the sample — an extra
   fresh community, a bumped MED, communities drawn from the environments'
   lists — until the concrete outputs differ, staying inside the region. *)
let concretely_differs ~env_a ~env_b map_a map_b r =
  match (Eval.eval env_a map_a r, Eval.eval env_b map_b r) with
  | Eval.Denied, Eval.Denied -> false
  | Eval.Permitted a, Eval.Permitted b -> not (Route.equal a b)
  | Eval.Permitted _, Eval.Denied | Eval.Denied, Eval.Permitted _ -> true

let fresh_community = Community.make 65123 999

let decoration_communities env_a env_b =
  let of_env (env : Eval.env) =
    List.concat_map
      (fun l -> Community.Set.elements (Policy.Community_list.communities_mentioned l))
      env.Eval.community_lists
  in
  fresh_community :: (of_env env_a @ of_env env_b)

let refine_example ~env_a ~env_b map_a map_b space r =
  let differs = concretely_differs ~env_a ~env_b map_a map_b in
  if differs r then r
  else
    let candidates =
      List.concat_map
        (fun c -> [ Route.add_community r c; Route.add_community { r with Route.med = r.Route.med + 1 } c ])
        (decoration_communities env_a env_b)
      @ [ { r with Route.med = r.Route.med + 1 } ]
    in
    match
      List.find_opt (fun c -> Pred.satisfies ~env:env_a c space && differs c) candidates
    with
    | Some c -> c
    | None -> r

let compare_maps ~env_a ~env_b ?(universe = Pred.default_universe) map_a map_b =
  let regions_a = Transfer.compile env_a map_a in
  let regions_b = Transfer.compile env_b map_b in
  (* Decide whether a region pair can differ before intersecting it: most
     pairs agree, and the intersection is the expensive part. *)
  let difference (ra : Transfer.region) (rb : Transfer.region) =
    let action_mismatch = ra.action <> rb.action in
    if
      (not action_mismatch)
      && (ra.action = Action.Deny || Effects.equal ra.effect_ rb.effect_)
    then None
    else
      let overlap = Pred.inter ra.space rb.space in
      if Pred.is_empty overlap then None
      else
        let kind =
          if action_mismatch then Action_mismatch
          else Effect_mismatch (Effects.differing_fields ra.effect_ rb.effect_)
        in
        (* Prefer a witness visible to both evaluation environments; env_a
           suffices since AS-path constraints are name-based and both sides
           share the universe. *)
        let example =
          Option.map
            (refine_example ~env_a ~env_b map_a map_b overlap)
            (Pred.sample ~env:env_a ~universe overlap)
        in
        Some
          {
            space = overlap;
            example;
            action_a = ra.action;
            action_b = rb.action;
            seq_a = ra.seq;
            seq_b = rb.seq;
            kind;
          }
  in
  List.concat_map (fun ra -> List.filter_map (difference ra) regions_b) regions_a

let equivalent ~env_a ~env_b map_a map_b =
  compare_maps ~env_a ~env_b map_a map_b = []
