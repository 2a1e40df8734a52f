open Netcore

type t = { must : Community.Set.t; must_not : Community.Set.t }

let top = { must = Community.Set.empty; must_not = Community.Set.empty }

let make ~must ~must_not =
  if Community.Set.is_empty (Community.Set.inter must must_not) then
    Some { must; must_not }
  else None

let require c = { must = Community.Set.singleton c; must_not = Community.Set.empty }
let forbid c = { must = Community.Set.empty; must_not = Community.Set.singleton c }

let inter a b =
  make
    ~must:(Community.Set.union a.must b.must)
    ~must_not:(Community.Set.union a.must_not b.must_not)

let complement t =
  let negated_must =
    List.map (fun c -> forbid c) (Community.Set.elements t.must)
  in
  let negated_must_not =
    List.map (fun c -> require c) (Community.Set.elements t.must_not)
  in
  negated_must @ negated_must_not

let satisfies set t =
  Community.Set.subset t.must set
  && Community.Set.is_empty (Community.Set.inter t.must_not set)

let sample t = t.must
