type t = { hash : int; text : string }

let of_string text = { hash = Hashtbl.hash text; text }
