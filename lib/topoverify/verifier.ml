open Netcore
open Policy

type kind =
  | Interface_address_mismatch
  | Missing_interface
  | Local_as_mismatch
  | Router_id_mismatch
  | Neighbor_not_declared
  | Network_not_declared
  | Incorrect_network
  | Incorrect_neighbor
  | No_bgp_process

type finding = {
  kind : kind;
  message : string;
  iface : Iface.t option;
  peer : Ipv4.t option;
  network : Prefix.t option;
}

let check topology ~router config =
  let spec = Topology.find_router_exn topology router in
  let findings = ref [] in
  let note ?iface ?peer ?network kind fmt =
    Printf.ksprintf
      (fun message -> findings := { kind; message; iface; peer; network } :: !findings)
      fmt
  in
  (* 1-2: interfaces and their addresses. *)
  List.iter
    (fun (port : Topology.port) ->
      match Config_ir.find_interface config port.Topology.iface with
      | None ->
          note ~iface:port.Topology.iface Missing_interface
            "Interface %s is not configured"
            (Iface.cisco_name port.Topology.iface)
      | Some i -> (
          match i.Config_ir.address with
          | None ->
              note ~iface:port.Topology.iface Interface_address_mismatch
                "Interface %s has no IP address. Expected %s"
                (Iface.cisco_name port.Topology.iface)
                (Ipv4.to_string port.Topology.addr)
          | Some (addr, len) ->
              if not (Ipv4.equal addr port.Topology.addr) then
                note ~iface:port.Topology.iface Interface_address_mismatch
                  "Interface %s ip address does not match with given config. \
                   Expected %s, found %s"
                  (Iface.cisco_name port.Topology.iface)
                  (Ipv4.to_string port.Topology.addr)
                  (Ipv4.to_string addr)
              else if len <> Prefix.len port.Topology.subnet then
                note ~iface:port.Topology.iface Interface_address_mismatch
                  "Interface %s mask length does not match. Expected /%d, found /%d"
                  (Iface.cisco_name port.Topology.iface)
                  (Prefix.len port.Topology.subnet)
                  len))
    spec.Topology.ports;
  (match config.Config_ir.bgp with
  | None -> note No_bgp_process "Router %s has no BGP process configured" router
  | Some b ->
      (* 2: local AS. *)
      if b.Config_ir.asn <> spec.Topology.asn then
        note Local_as_mismatch "Local AS number does not match. Expected %d, found %d"
          spec.Topology.asn b.Config_ir.asn;
      (* 3: router id. *)
      (match b.Config_ir.router_id with
      | Some rid when not (Ipv4.equal rid spec.Topology.router_id) ->
          note Router_id_mismatch
            "Router ID does not match with given config. Expected %s, found %s"
            (Ipv4.to_string spec.Topology.router_id)
            (Ipv4.to_string rid)
      | Some _ -> ()
      | None ->
          note Router_id_mismatch "Router ID is not configured. Expected %s"
            (Ipv4.to_string spec.Topology.router_id));
      (* 4 & 7: neighbors, both directions. *)
      let sessions = Topology.sessions_of topology router in
      List.iter
        (fun (s : Topology.session) ->
          let found =
            List.find_opt
              (fun (n : Config_ir.neighbor) ->
                Ipv4.equal n.Config_ir.addr s.Topology.peer_addr
                && n.Config_ir.remote_as = s.Topology.peer_asn)
              b.Config_ir.neighbors
          in
          if found = None then
            note ~peer:s.Topology.peer_addr Neighbor_not_declared
              "Neighbor with IP address %s and AS %d not declared"
              (Ipv4.to_string s.Topology.peer_addr)
              s.Topology.peer_asn)
        sessions;
      List.iter
        (fun (n : Config_ir.neighbor) ->
          let expected =
            List.exists
              (fun (s : Topology.session) ->
                Ipv4.equal n.Config_ir.addr s.Topology.peer_addr
                && n.Config_ir.remote_as = s.Topology.peer_asn)
              sessions
          in
          if not expected then
            note ~peer:n.Config_ir.addr Incorrect_neighbor
              "Incorrect neighbor declaration. No neighbor with IP address %s AS %d \
               found"
              (Ipv4.to_string n.Config_ir.addr)
              n.Config_ir.remote_as)
        b.Config_ir.neighbors;
      (* 5 & 6: networks, both directions. *)
      let expected_networks = Topology.networks_of topology router in
      List.iter
        (fun net ->
          if not (List.exists (Prefix.equal net) b.Config_ir.networks) then
            note ~network:net Network_not_declared "Network %s not declared"
              (Prefix.to_string net))
        expected_networks;
      List.iter
        (fun net ->
          if not (List.exists (Prefix.equal net) expected_networks) then
            note ~network:net Incorrect_network
              "Incorrect network declaration. %s is not directly connected to %s"
              (Prefix.to_string net) router)
        b.Config_ir.networks);
  List.rev !findings

let check_from_json json ~router config =
  match Topology.of_json json with
  | Error e -> Error e
  | Ok topology -> (
      match Topology.find_router topology router with
      | None -> Error (Printf.sprintf "router %s not in topology dictionary" router)
      | Some _ -> Ok (check topology ~router config))
