type origin = Igp | Egp | Incomplete
type source = Bgp | Ospf | Connected | Static

type t = {
  prefix : Prefix.t;
  next_hop : Ipv4.t option;
  as_path : As_path.t;
  communities : Community.Set.t;
  med : int;
  local_pref : int;
  origin : origin;
  source : source;
}

let default_local_pref = 100

let make ?next_hop ?(as_path = As_path.empty) ?(communities = Community.Set.empty)
    ?(med = 0) ?(local_pref = default_local_pref) ?(origin = Igp) ?(source = Bgp)
    prefix =
  { prefix; next_hop; as_path; communities; med; local_pref; origin; source }

let with_communities r communities = { r with communities }
let add_community r c = { r with communities = Community.Set.add c r.communities }
let origin_to_string = function Igp -> "igp" | Egp -> "egp" | Incomplete -> "incomplete"

let source_to_string = function
  | Bgp -> "bgp"
  | Ospf -> "ospf"
  | Connected -> "connected"
  | Static -> "static"

let compare = Stdlib.compare
let equal a b = compare a b = 0

let to_string r =
  let nh = match r.next_hop with None -> "-" | Some a -> Ipv4.to_string a in
  Printf.sprintf
    "%s nh=%s as-path=[%s] comms={%s} med=%d lp=%d origin=%s src=%s"
    (Prefix.to_string r.prefix) nh
    (As_path.to_string r.as_path)
    (Community.Set.to_string r.communities)
    r.med r.local_pref (origin_to_string r.origin) (source_to_string r.source)
