open Netcore

type entry = { seq : int; action : Action.t; range : Prefix_range.t }
type t = { name : string; entries : entry list }

let make name entries =
  let entries = List.sort (fun a b -> Int.compare a.seq b.seq) entries in
  let rec check = function
    | a :: (b :: _ as rest) ->
        if a.seq = b.seq then
          invalid_arg
            (Printf.sprintf "Prefix_list.make: duplicate seq %d in %s" a.seq name);
        check rest
    | _ -> ()
  in
  check entries;
  { name; entries }

let entry ?(action = Action.Permit) seq range = { seq; action; range }

let matching_entry t p = List.find_opt (fun e -> Prefix_range.matches e.range p) t.entries

let matches t p =
  match matching_entry t p with
  | Some e -> e.action = Action.Permit
  | None -> false
