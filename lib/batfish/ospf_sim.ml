open Netcore
open Policy

type entry = { prefix : Prefix.t; cost : int; next_hop : string option }

type ribs = (string * entry list) list

let empty : ribs = []

let default_cost iface = if Iface.is_loopback iface then 1 else 10

(* Effective OSPF membership of one router: interface -> (area, cost,
   passive), combining explicit per-interface settings with network-statement
   coverage (the same rule as Juniper.Translate). *)
let membership (config : Config_ir.t) =
  match config.Config_ir.ospf with
  | None -> []
  | Some o ->
      let area_of addr =
        List.find_map
          (fun (p, area) -> if Prefix.contains_addr p addr then Some area else None)
          o.Config_ir.networks
      in
      let explicit iface =
        List.find_opt
          (fun (oi : Config_ir.ospf_interface) -> Iface.equal oi.Config_ir.iface iface)
          o.Config_ir.interfaces
      in
      let covered =
        List.filter_map
          (fun (i : Config_ir.interface) ->
            match i.Config_ir.address with
            | Some (addr, len) when not i.Config_ir.shutdown -> (
                let area =
                  match area_of addr with
                  | Some a -> Some a
                  | None ->
                      (* Explicit interface config without a covering network
                         statement (the Junos style). *)
                      Option.map
                        (fun (oi : Config_ir.ospf_interface) -> oi.Config_ir.area)
                        (explicit i.Config_ir.iface)
                in
                match area with
                | Some area ->
                    let prior = explicit i.Config_ir.iface in
                    let cost =
                      match Option.bind prior (fun (oi : Config_ir.ospf_interface) -> oi.Config_ir.cost) with
                      | Some c -> c
                      | None -> default_cost i.Config_ir.iface
                    in
                    let passive =
                      match prior with
                      | Some oi -> oi.Config_ir.passive
                      | None -> false
                    in
                    Some (i.Config_ir.iface, (area, cost, passive, Prefix.make addr len))
                | None -> None)
            | _ -> None)
          config.Config_ir.interfaces
      in
      covered

let run (net : Net.t) =
  let config name =
    Net.config_of net name
  in
  let names =
    List.map (fun (r : Topology.router) -> r.Topology.name) net.Net.topology.Topology.routers
  in
  let members = List.map (fun n -> (n, membership (config n))) names in
  let member_of name iface =
    Option.bind (List.assoc_opt name members) (fun l ->
        List.find_opt (fun (i, _) -> Iface.equal i iface) l)
  in
  (* Directed edges: (from, to, cost of from's outgoing interface). *)
  let edges =
    List.concat_map
      (fun (l : Topology.link) ->
        let a = l.Topology.a and b = l.Topology.b in
        let ma = member_of a.Topology.router a.Topology.iface in
        let mb = member_of b.Topology.router b.Topology.iface in
        match (ma, mb) with
        | Some (_, (area_a, cost_a, passive_a, _)), Some (_, (area_b, cost_b, passive_b, _))
          when area_a = area_b && (not passive_a) && not passive_b ->
            [
              (a.Topology.router, b.Topology.router, cost_a);
              (b.Topology.router, a.Topology.router, cost_b);
            ]
        | _ -> [])
      net.Net.topology.Topology.links
  in
  (* Advertised subnets per router: every member interface's subnet, with
     the interface cost as the last-hop cost. *)
  let advertised name =
    match List.assoc_opt name members with
    | None -> []
    | Some l -> List.map (fun (_, (_, cost, _, subnet)) -> (subnet, cost)) l
  in
  (* Dijkstra from [src] over the router graph. *)
  let distances src =
    let dist = Hashtbl.create 16 in
    Hashtbl.replace dist src (0, None);
    let visited = Hashtbl.create 16 in
    let rec go () =
      let best =
        Hashtbl.fold
          (fun n (d, _) acc ->
            if Hashtbl.mem visited n then acc
            else
              match acc with
              | Some (_, bd) when bd <= d -> acc
              | _ -> Some (n, d))
          dist None
      in
      match best with
      | None -> ()
      | Some (n, d) ->
          Hashtbl.replace visited n ();
          List.iter
            (fun (from, to_, c) ->
              if from = n then
                let candidate = d + c in
                let first_hop =
                  if n = src then Some to_
                  else match Hashtbl.find_opt dist n with Some (_, fh) -> fh | None -> None
                in
                match Hashtbl.find_opt dist to_ with
                | Some (existing, _) when existing <= candidate -> ()
                | _ -> Hashtbl.replace dist to_ (candidate, first_hop))
            edges;
          go ()
    in
    go ();
    dist
  in
  let rib_for name =
    if List.assoc_opt name members = Some [] || List.assoc_opt name members = None then []
    else begin
      let dist = distances name in
      let candidates = Hashtbl.create 32 in
      List.iter
        (fun other ->
          match Hashtbl.find_opt dist other with
          | None -> ()
          | Some (d, first_hop) ->
              List.iter
                (fun (subnet, last_cost) ->
                  let total = if other = name then last_cost else d + last_cost in
                  let next_hop = if other = name then None else first_hop in
                  match Hashtbl.find_opt candidates subnet with
                  | Some (existing, _) when existing <= total -> ()
                  | _ -> Hashtbl.replace candidates subnet (total, next_hop))
                (advertised other))
        names;
      Hashtbl.fold
        (fun prefix (cost, next_hop) acc -> { prefix; cost; next_hop } :: acc)
        candidates []
      |> List.sort (fun a b -> Prefix.compare a.prefix b.prefix)
    end
  in
  List.map (fun n -> (n, rib_for n)) names

let rib (t : ribs) name = Option.value ~default:[] (List.assoc_opt name t)

let lookup t ~router prefix =
  List.find_opt (fun e -> Prefix.equal e.prefix prefix) (rib t router)
