open Netcore

type entry = { action : Action.t; communities : Community.t list }
type t = { name : string; entries : entry list }

let make name entries = { name; entries }
let entry ?(action = Action.Permit) communities = { action; communities }

let entry_matches e set = List.for_all (fun c -> Community.Set.mem c set) e.communities
let matching_entry t set = List.find_opt (fun e -> entry_matches e set) t.entries

let matches t set =
  match matching_entry t set with
  | Some e -> e.action = Action.Permit
  | None -> false

let communities_mentioned t =
  List.fold_left
    (fun acc e -> List.fold_left (fun acc c -> Community.Set.add c acc) acc e.communities)
    Community.Set.empty t.entries
