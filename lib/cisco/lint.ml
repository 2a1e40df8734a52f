open Netcore
open Policy

let regex_ok regex =
  match As_path_list.matches (As_path_list.make "t" [ As_path_list.entry regex ]) As_path.empty with
  | (_ : bool) -> true
  | exception Invalid_argument _ -> false

let check (c : Config_ir.t) =
  let diags = ref [] in
  let warn fmt = Printf.ksprintf (fun s -> diags := Diag.warning s :: !diags) fmt in
  List.iter (fun missing -> warn "reference to undefined %s" missing)
    (Config_ir.undefined_references c);
  (match c.bgp with
  | None -> ()
  | Some b ->
      List.iter
        (fun (n : Config_ir.neighbor) ->
          if n.remote_as <= 0 then
            warn "neighbor %s has no remote-as" (Ipv4.to_string n.addr))
        b.neighbors;
      if c.interfaces <> [] then
        let connected = Config_ir.connected_prefixes c in
        List.iter
          (fun net ->
            if not (List.exists (fun p -> Prefix.equal p net) connected) then
              warn "network %s is declared under router bgp but no interface is \
                    addressed in it"
                (Prefix.to_string net))
          b.networks);
  (* Route maps defined but attached nowhere are suspicious in generated
     configs (usually a mis-typed attachment). *)
  List.iter
    (fun name ->
      warn "route-map %s is defined but not attached to any neighbor or \
            redistribution"
        name)
    (Config_ir.unattached_route_maps c);
  List.iter
    (fun (l : As_path_list.t) ->
      List.iter
        (fun (e : As_path_list.entry) ->
          if not (regex_ok e.regex) then
            warn "as-path access-list %s: invalid regular expression '%s'" l.name e.regex)
        l.entries)
    c.as_path_lists;
  List.rev !diags
