type t = Permit | Deny

let to_string = function Permit -> "permit" | Deny -> "deny"

let of_string = function
  | "permit" -> Some Permit
  | "deny" -> Some Deny
  | _ -> None

let flip = function Permit -> Deny | Deny -> Permit
