type t = Any | Eq of int | Neq of int list

let any = Any
let eq n = Eq n

let neq = function
  | [] -> Any
  | l -> Neq (List.sort_uniq Int.compare l)

let inter a b =
  match (a, b) with
  | Any, x | x, Any -> Some x
  | Eq m, Eq n -> if m = n then Some (Eq m) else None
  | Eq m, Neq l | Neq l, Eq m -> if List.mem m l then None else Some (Eq m)
  | Neq l, Neq l' -> Some (neq (l @ l'))

let complement = function
  | Any -> []
  | Eq n -> [ Neq [ n ] ]
  | Neq l -> List.map (fun n -> Eq n) l

let sample = function
  | Any -> 0
  | Eq n -> n
  | Neq l ->
      let rec first n = if List.mem n l then first (n + 1) else n in
      first 0

let satisfies v = function Any -> true | Eq n -> v = n | Neq l -> not (List.mem v l)
