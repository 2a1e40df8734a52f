type severity = Warning | Error

type t = { line : int; severity : severity; message : string }

let warning ?(line = 0) message = { line; severity = Warning; message }
let error ?(line = 0) message = { line; severity = Error; message }
let is_error t = t.severity = Error

let to_string t =
  let sev = match t.severity with Warning -> "warning" | Error -> "error" in
  if t.line = 0 then Printf.sprintf "%s: %s" sev t.message
  else Printf.sprintf "line %d: %s: %s" t.line sev t.message
