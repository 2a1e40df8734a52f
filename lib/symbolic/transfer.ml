open Policy

type region = {
  space : Pred.t;
  action : Action.t;
  effect_ : Effects.t;
  seq : int option;
}

let compile env (m : Route_map.t) =
  let regions, remaining =
    List.fold_left
      (fun (regions, remaining) (e : Route_map.entry) ->
        let guard = Guard.compile_entry_guard env e in
        let matched = Pred.inter remaining guard in
        let regions =
          if Pred.is_empty matched then regions
          else
            {
              space = matched;
              action = e.action;
              effect_ = Effects.of_sets e.sets;
              seq = Some e.seq;
            }
            :: regions
        in
        (regions, Pred.diff remaining guard))
      ([], Pred.full) m.entries
  in
  let implicit =
    if Pred.is_empty remaining then []
    else
      [ { space = remaining; action = Action.Deny; effect_ = Effects.identity; seq = None } ]
  in
  List.rev regions @ implicit

(* Filtering keeps environment order, so a duplicate name still resolves to
   its first definition. *)
let env_slice ?(as_path_lists = []) maps (env : Eval.env) =
  let named ?(extra = []) referenced name_of = function
    | [] -> []
    | lists ->
        let names = extra @ List.concat_map referenced maps in
        List.filter (fun l -> List.mem (name_of l) names) lists
  in
  {
    Eval.prefix_lists =
      named Route_map.prefix_lists_referenced
        (fun (l : Prefix_list.t) -> l.Prefix_list.name)
        env.Eval.prefix_lists;
    community_lists =
      named Route_map.community_lists_referenced
        (fun (l : Community_list.t) -> l.Community_list.name)
        env.Eval.community_lists;
    as_path_lists =
      named ~extra:as_path_lists Route_map.as_path_lists_referenced
        (fun (l : As_path_list.t) -> l.As_path_list.name)
        env.Eval.as_path_lists;
  }
