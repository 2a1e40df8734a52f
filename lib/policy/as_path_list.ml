open Netcore

type entry = { action : Action.t; regex : string }
type t = { name : string; entries : entry list }

let make name entries = { name; entries }
let entry ?(action = Action.Permit) regex = { action; regex }

let matches t path =
  let rec go = function
    | [] -> false
    | e :: rest ->
        if As_path.matches ~regex:e.regex path then e.action = Action.Permit
        else go rest
  in
  go t.entries
