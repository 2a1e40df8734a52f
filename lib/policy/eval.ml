open Netcore

type env = {
  prefix_lists : Prefix_list.t list;
  community_lists : Community_list.t list;
  as_path_lists : As_path_list.t list;
}

let env_of_config (c : Config_ir.t) =
  {
    prefix_lists = c.prefix_lists;
    community_lists = c.community_lists;
    as_path_lists = c.as_path_lists;
  }

type verdict = Permitted of Route.t | Denied

let find_pl env n = List.find_opt (fun (l : Prefix_list.t) -> l.name = n) env.prefix_lists

let find_cl env n =
  List.find_opt (fun (l : Community_list.t) -> l.name = n) env.community_lists

let find_al env n =
  List.find_opt (fun (l : As_path_list.t) -> l.name = n) env.as_path_lists

let match_cond env cond (r : Route.t) =
  match cond with
  | Route_map.Match_prefix_list n -> (
      match find_pl env n with Some l -> Prefix_list.matches l r.prefix | None -> false)
  | Route_map.Match_community_list n -> (
      match find_cl env n with
      | Some l -> Community_list.matches l r.communities
      | None -> false)
  | Route_map.Match_as_path n -> (
      match find_al env n with Some l -> As_path_list.matches l r.as_path | None -> false)
  | Route_map.Match_source_protocol s -> r.source = s
  | Route_map.Match_med m -> r.med = m
  | Route_map.Match_tag _ -> false

let entry_matches env (e : Route_map.entry) r =
  List.for_all (fun c -> match_cond env c r) e.matches

let apply_set env set (r : Route.t) =
  match set with
  | Route_map.Set_med m -> { r with med = m }
  | Route_map.Set_local_pref p -> { r with local_pref = p }
  | Route_map.Set_community { communities; additive } ->
      let added = Community.Set.of_list communities in
      let communities =
        if additive then Community.Set.union r.communities added else added
      in
      { r with communities }
  | Route_map.Set_community_delete n -> (
      match find_cl env n with
      | None -> r
      | Some l ->
          let keep c = not (Community_list.matches l (Community.Set.singleton c)) in
          { r with communities = Community.Set.filter keep r.communities })
  | Route_map.Set_next_hop a -> { r with next_hop = Some a }
  | Route_map.Set_as_path_prepend asns ->
      { r with as_path = List.fold_right As_path.prepend asns r.as_path }

let apply_sets env sets r = List.fold_left (fun r s -> apply_set env s r) r sets

let eval env (m : Route_map.t) r =
  let rec go = function
    | [] -> Denied
    | (e : Route_map.entry) :: rest ->
        if entry_matches env e r then
          match e.action with
          | Action.Permit -> Permitted (apply_sets env e.sets r)
          | Action.Deny -> Denied
        else go rest
  in
  go m.entries

let eval_optional env m r =
  match m with None -> Permitted r | Some m -> eval env m r
