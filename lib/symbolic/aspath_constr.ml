open Netcore
open Policy

type t = { must : string list; must_not : string list }

let top = { must = []; must_not = [] }
let require n = { must = [ n ]; must_not = [] }
let forbid n = { must = []; must_not = [ n ] }

let inter a b =
  let must = List.sort_uniq String.compare (a.must @ b.must) in
  let must_not = List.sort_uniq String.compare (a.must_not @ b.must_not) in
  if List.exists (fun n -> List.mem n must_not) must then None
  else Some { must; must_not }

let complement t =
  List.map forbid t.must @ List.map require t.must_not

let is_top t = t.must = [] && t.must_not = []

let list_matches env name path =
  match List.find_opt (fun (l : As_path_list.t) -> l.name = name) env with
  | Some l -> ( try As_path_list.matches l path with Invalid_argument _ -> false)
  | None -> false

let satisfies ~env path t =
  List.for_all (fun n -> list_matches env n path) t.must
  && List.for_all (fun n -> not (list_matches env n path)) t.must_not

let sample ~env ~universe t =
  if is_top t then Some As_path.empty
  else List.find_opt (fun p -> satisfies ~env p t) universe
