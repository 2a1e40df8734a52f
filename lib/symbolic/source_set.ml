open Netcore

type t = int

let all = [ Route.Bgp; Route.Ospf; Route.Connected; Route.Static ]
let index = function Route.Bgp -> 0 | Route.Ospf -> 1 | Route.Connected -> 2 | Route.Static -> 3
let full = 0b1111
let singleton s = 1 lsl index s
let mem s t = t land singleton s <> 0
let inter a b = a land b
let diff a b = a land lnot b
let is_empty t = t = 0
let to_list t = List.filter (fun s -> mem s t) all
let choose t = match to_list t with [] -> None | s :: _ -> Some s
