open Netcore
open Policy

(* Apply community changes to one cube. Additive adds are exact on both
   sides of the cube; a replacement pins the must side to the final set but
   drops must_not knowledge (the cube language cannot say "and nothing
   else"); deletions are not resolved against list definitions here, so
   they conservatively drop all community knowledge. *)
let apply_comms (e : Effects.t) (comms : Comm_constr.t) =
  match (e.Effects.comm_base, e.Effects.comm_deleted) with
  | _, _ :: _ -> Comm_constr.top
  | Some base, [] -> (
      let must = Community.Set.union base e.Effects.comm_added in
      match Comm_constr.make ~must ~must_not:Community.Set.empty with
      | Some c -> c
      | None -> Comm_constr.top)
  | None, [] -> (
      let must = Community.Set.union comms.Comm_constr.must e.Effects.comm_added in
      let must_not = Community.Set.diff comms.Comm_constr.must_not e.Effects.comm_added in
      match Comm_constr.make ~must ~must_not with
      | Some c -> c
      | None -> Comm_constr.top)

let apply_effect (e : Effects.t) (c : Cube.t) =
  let med =
    match e.Effects.med with Some m -> Int_constr.eq m | None -> c.Cube.med
  in
  let aspath = if e.Effects.prepend = [] then c.Cube.aspath else Aspath_constr.top in
  let comms = apply_comms e c.Cube.comms in
  { c with Cube.comms; med; aspath }

let image regions input =
  List.fold_left
    (fun acc (r : Transfer.region) ->
      if r.Transfer.action <> Action.Permit then acc
      else
        let matched = Pred.inter r.Transfer.space input in
        if Pred.is_empty matched then acc
        else
          let transformed =
            Pred.of_cubes
              (List.map (apply_effect r.Transfer.effect_) (Pred.cubes matched))
          in
          Pred.union acc transformed)
    Pred.empty regions

let permits regions input =
  List.fold_left
    (fun acc (r : Transfer.region) ->
      if r.Transfer.action <> Action.Permit then acc
      else
        let surviving = Pred.inter r.Transfer.space input in
        if Pred.is_empty surviving then acc else Pred.union acc surviving)
    Pred.empty regions
