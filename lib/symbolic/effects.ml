open Netcore
open Policy

type t = {
  med : int option;
  local_pref : int option;
  comm_base : Community.Set.t option;
  comm_added : Community.Set.t;
  comm_deleted : string list;
  next_hop : Ipv4.t option;
  prepend : int list;
}

let identity =
  {
    med = None;
    local_pref = None;
    comm_base = None;
    comm_added = Community.Set.empty;
    comm_deleted = [];
    next_hop = None;
    prepend = [];
  }

let apply acc (s : Route_map.set_action) =
  match s with
  | Route_map.Set_med m -> { acc with med = Some m }
  | Route_map.Set_local_pref p -> { acc with local_pref = Some p }
  | Route_map.Set_community { communities; additive } ->
      let cs = Community.Set.of_list communities in
      if additive then { acc with comm_added = Community.Set.union acc.comm_added cs }
      else { acc with comm_base = Some cs; comm_added = Community.Set.empty }
  | Route_map.Set_community_delete n ->
      { acc with comm_deleted = List.sort_uniq String.compare (n :: acc.comm_deleted) }
  | Route_map.Set_next_hop a -> { acc with next_hop = Some a }
  | Route_map.Set_as_path_prepend asns -> { acc with prepend = acc.prepend @ asns }

let of_sets sets = List.fold_left apply identity sets

let equal a b = a = b

let show_opt f = function None -> "(unchanged)" | Some x -> f x
let show_int_opt = show_opt string_of_int

let show_comm_base = function
  | None -> "kept"
  | Some s -> "replaced with {" ^ Community.Set.to_string s ^ "}"

let differing_fields a b =
  let diffs = ref [] in
  let check name fa fb show =
    if fa <> fb then diffs := (name, show fa, show fb) :: !diffs
  in
  check "MED" a.med b.med show_int_opt;
  check "local-preference" a.local_pref b.local_pref show_int_opt;
  check "community base" a.comm_base b.comm_base show_comm_base;
  if not (Community.Set.equal a.comm_added b.comm_added) then
    diffs :=
      ( "communities added",
        "{" ^ Community.Set.to_string a.comm_added ^ "}",
        "{" ^ Community.Set.to_string b.comm_added ^ "}" )
      :: !diffs;
  check "communities deleted" a.comm_deleted b.comm_deleted (String.concat ",");
  check "next hop" a.next_hop b.next_hop (show_opt Ipv4.to_string);
  check "AS-path prepend" a.prepend b.prepend (fun l ->
      String.concat " " (List.map string_of_int l));
  List.rev !diffs
