open Netcore
open Policy

type network = Net.t = {
  topology : Topology.t;
  configs : (string * Config_ir.t) list;
}

type rib_entry = { route : Route.t; learned_from : string option }

type ribs = (string * rib_entry Prefix.Map.t) list

exception Did_not_converge of int

let config_of = Net.config_of
let asn_of = Net.asn_of

(* Standard BGP decision process, restricted to the attributes we model.
   Locally originated networks win outright (IOS weight). *)
let better (a : rib_entry) (b : rib_entry) =
  let key (e : rib_entry) =
    ( (match e.learned_from with None -> 0 | Some _ -> 1),
      -e.route.Route.local_pref,
      As_path.length e.route.Route.as_path,
      e.route.Route.med,
      (match e.learned_from with None -> "" | Some n -> n) )
  in
  compare (key a) (key b) < 0

let best_of = function
  | [] -> None
  | e :: rest -> Some (List.fold_left (fun acc x -> if better x acc then x else acc) e rest)

(* Routes a router originates into BGP: its network statements plus
   whatever its redistributions admit. A dangling redistribution route map
   redistributes nothing (IOS treats the undefined map as deny-all in this
   context, and Juniper.Translate makes the same choice). *)
let locals net ospf_ribs name =
  let config = config_of net name in
  match config.Config_ir.bgp with
  | None -> []
  | Some b ->
      let networks =
        List.map (fun p -> { route = Route.make p; learned_from = None }) b.Config_ir.networks
      in
      let env = Eval.env_of_config config in
      let redistribute (r : Config_ir.redistribution) =
        let source_routes =
          match r.Config_ir.from_protocol with
          | Route.Ospf ->
              List.map
                (fun (e : Ospf_sim.entry) ->
                  Route.make ~source:Route.Ospf ~med:e.Ospf_sim.cost ~origin:Route.Incomplete
                    e.Ospf_sim.prefix)
                (Ospf_sim.rib ospf_ribs name)
          | Route.Connected ->
              List.map
                (fun p -> Route.make ~source:Route.Connected ~origin:Route.Incomplete p)
                (Config_ir.connected_prefixes config)
          | Route.Static ->
              List.map
                (fun (sr : Config_ir.static_route) ->
                  Route.make ~source:Route.Static ~origin:Route.Incomplete
                    sr.Config_ir.destination)
                config.Config_ir.statics
          | Route.Bgp -> []
        in
        let policy =
          match r.Config_ir.policy with
          | None -> Some None
          | Some name -> (
              match Config_ir.find_route_map config name with
              | Some m -> Some (Some m)
              | None -> None)
        in
        match policy with
        | None -> []
        | Some policy ->
            List.filter_map
              (fun route ->
                match Eval.eval_optional env policy route with
                | Eval.Permitted out -> Some { route = out; learned_from = None }
                | Eval.Denied -> None)
              source_routes
      in
      networks @ List.concat_map redistribute b.Config_ir.redistributions

(* What [sender] advertises to [receiver] over one link, given the sender's
   current RIB. *)
let advertisements net (sender : string) (receiver : string)
    ~(sender_addr : Ipv4.t) ~(receiver_addr : Ipv4.t) sender_rib =
  let cfg_s = config_of net sender in
  match cfg_s.Config_ir.bgp with
  | None -> []
  | Some b -> (
      match Config_ir.find_neighbor b receiver_addr with
      | None -> []
      | Some neighbor ->
          let env = Eval.env_of_config cfg_s in
          let export = Option.bind neighbor.Config_ir.export_policy (Config_ir.find_route_map cfg_s) in
          Prefix.Map.fold
            (fun _p (entry : rib_entry) acc ->
              if entry.learned_from = Some receiver then acc
              else
                match Eval.eval_optional env export entry.route with
                | Eval.Denied -> acc
                | Eval.Permitted r ->
                    let r =
                      if neighbor.Config_ir.send_community then r
                      else Route.with_communities r Community.Set.empty
                    in
                    let r =
                      {
                        r with
                        Route.as_path = As_path.prepend (asn_of net sender) r.Route.as_path;
                        next_hop = Some sender_addr;
                        local_pref = Route.default_local_pref;
                        source = Route.Bgp;
                      }
                    in
                    r :: acc)
            sender_rib [])

let receive net (receiver : string) (sender : string) ~(sender_addr : Ipv4.t) routes =
  let cfg_r = config_of net receiver in
  match cfg_r.Config_ir.bgp with
  | None -> []
  | Some b -> (
      match Config_ir.find_neighbor b sender_addr with
      | None -> []
      | Some neighbor ->
          let env = Eval.env_of_config cfg_r in
          let import = Option.bind neighbor.Config_ir.import_policy (Config_ir.find_route_map cfg_r) in
          List.filter_map
            (fun (r : Route.t) ->
              if As_path.mem (asn_of net receiver) r.Route.as_path then None
              else
                match Eval.eval_optional env import r with
                | Eval.Denied -> None
                | Eval.Permitted r -> Some { route = r; learned_from = Some sender })
            routes)

let adjacency_pairs net name =
  List.filter_map
    (fun (l : Topology.link) ->
      if l.Topology.a.Topology.router = name then
        Some (l.Topology.b.Topology.router, l.Topology.b.Topology.addr, l.Topology.a.Topology.addr)
      else if l.Topology.b.Topology.router = name then
        Some (l.Topology.a.Topology.router, l.Topology.a.Topology.addr, l.Topology.b.Topology.addr)
      else None)
    net.topology.Topology.links

let rib_equal (a : rib_entry Prefix.Map.t) (b : rib_entry Prefix.Map.t) =
  Prefix.Map.equal ( = ) a b

let needs_ospf net =
  List.exists
    (fun (_, (c : Config_ir.t)) ->
      match c.Config_ir.bgp with
      | Some b ->
          List.exists
            (fun (r : Config_ir.redistribution) -> r.Config_ir.from_protocol = Route.Ospf)
            b.Config_ir.redistributions
      | None -> false)
    net.configs

let run ?(max_iterations = 64) net =
  let names = List.map (fun (r : Topology.router) -> r.Topology.name) net.topology.Topology.routers in
  let ospf_ribs = if needs_ospf net then Ospf_sim.run net else Ospf_sim.empty in
  let locals net name = locals net ospf_ribs name in
  let initial =
    List.map
      (fun name ->
        let m =
          List.fold_left
            (fun acc (e : rib_entry) -> Prefix.Map.add e.route.Route.prefix e acc)
            Prefix.Map.empty (locals net name)
        in
        (name, m))
      names
  in
  let step (state : ribs) =
    List.map
      (fun name ->
        let candidates = Hashtbl.create 16 in
        let add (e : rib_entry) =
          let key = e.route.Route.prefix in
          let existing = Option.value ~default:[] (Hashtbl.find_opt candidates key) in
          Hashtbl.replace candidates key (e :: existing)
        in
        List.iter add (locals net name);
        List.iter
          (fun (peer, peer_addr, my_addr) ->
            let peer_rib = Option.value ~default:Prefix.Map.empty (List.assoc_opt peer state) in
            let advertised =
              advertisements net peer name ~sender_addr:peer_addr ~receiver_addr:my_addr
                peer_rib
            in
            List.iter add (receive net name peer ~sender_addr:peer_addr advertised))
          (adjacency_pairs net name);
        let m =
          Hashtbl.fold
            (fun prefix cands acc ->
              match best_of cands with
              | Some e -> Prefix.Map.add prefix e acc
              | None -> acc)
            candidates Prefix.Map.empty
        in
        (name, m))
      names
  in
  let rec iterate state k =
    if k > max_iterations then raise (Did_not_converge max_iterations);
    let next = step state in
    let same =
      List.for_all2 (fun (_, a) (_, b) -> rib_equal a b) state next
    in
    if same then next else iterate next (k + 1)
  in
  iterate initial 1

let rib (t : ribs) name =
  match List.assoc_opt name t with
  | None -> []
  | Some m -> List.map snd (Prefix.Map.bindings m)

let lookup t ~router prefix =
  Option.bind (List.assoc_opt router t) (Prefix.Map.find_opt prefix)

let reachable t ~router prefix = lookup t ~router prefix <> None

let routers t = List.map fst t
