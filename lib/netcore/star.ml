type t = {
  topology : Topology.t;
  hub : string;
  spokes : string list;
  customer_prefix : Prefix.t;
}

let router_name k = Printf.sprintf "R%d" k
let link_subnet k = Prefix.make (Ipv4.of_octets (k - 1) 0 0 0) 24
let hub_link_addr k = Ipv4.of_octets (k - 1) 0 0 1
let spoke_link_addr k = Ipv4.of_octets (k - 1) 0 0 2
let customer_prefix = Prefix.make (Ipv4.of_octets 10 0 0 0) 24
let isp_prefix_of_index k = Prefix.make (Ipv4.of_octets 10 k 0 0) 24
let community_of_index k = Community.make (98 + k) 1

let parse_index name =
  if String.length name >= 2 && name.[0] = 'R' then
    int_of_string_opt (String.sub name 1 (String.length name - 1))
  else None

let build n =
  let hub_ports =
    { Topology.iface = Iface.ethernet ~slot:0 ~port:0;
      addr = Ipv4.of_octets 10 0 0 1;
      subnet = customer_prefix }
    :: List.init (n - 1) (fun i ->
           let k = i + 2 in
           { Topology.iface = Iface.ethernet ~slot:0 ~port:(k - 1);
             addr = hub_link_addr k;
             subnet = link_subnet k })
  in
  let hub =
    { Topology.name = router_name 1;
      asn = 1;
      router_id = Ipv4.of_octets 1 0 0 1;
      ports = hub_ports;
      stub_networks = [ customer_prefix ] }
  in
  let spoke k =
    { Topology.name = router_name k;
      asn = k;
      router_id = spoke_link_addr k;
      ports =
        [
          { Topology.iface = Iface.ethernet ~slot:0 ~port:0;
            addr = Ipv4.of_octets 10 k 0 1;
            subnet = isp_prefix_of_index k };
          { Topology.iface = Iface.ethernet ~slot:0 ~port:1;
            addr = spoke_link_addr k;
            subnet = link_subnet k };
        ];
      stub_networks = [ isp_prefix_of_index k ] }
  in
  let spokes = List.init (n - 1) (fun i -> spoke (i + 2)) in
  let link k =
    { Topology.a =
        { Topology.router = router_name 1;
          iface = Iface.ethernet ~slot:0 ~port:(k - 1);
          addr = hub_link_addr k };
      b =
        { Topology.router = router_name k;
          iface = Iface.ethernet ~slot:0 ~port:1;
          addr = spoke_link_addr k };
      subnet = link_subnet k }
  in
  let links = List.init (n - 1) (fun i -> link (i + 2)) in
  let topology = { Topology.routers = hub :: spokes; links } in
  (match Topology.validate topology with
  | Ok () -> ()
  | Error errs -> invalid_arg ("Star.make: " ^ String.concat "; " errs));
  {
    topology;
    hub = router_name 1;
    spokes = List.map (fun (r : Topology.router) -> r.name) spokes;
    customer_prefix;
  }

(* One star per size, shared by every caller: a table keyed on the
   topology (a memo table's key, or a plan's) then finds equal stars by
   physical equality instead of walking two equal copies. The table holds
   every size the generator accepts. *)
module Stars = Memo_table.Make (struct
  type t = int

  let hash = Hashtbl.hash
end)

let stars = Stars.create ~name:"star" ~cap:256

let make ~routers:n =
  if n < 2 || n > 200 then invalid_arg "Star.make: need 2..200 routers";
  Stars.find stars n (fun () -> build n)

let spoke_index t name =
  if List.mem name t.spokes then parse_index name else None

let isp_prefix t name = Option.map isp_prefix_of_index (spoke_index t name)
let community_of t name = Option.map community_of_index (spoke_index t name)

let description t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Topology.describe t.topology);
  Buffer.add_string buf
    (Printf.sprintf
       "Network %s attached to %s is the CUSTOMER network.\n"
       (Prefix.to_string t.customer_prefix)
       t.hub);
  List.iter
    (fun s ->
      match isp_prefix t s with
      | Some p ->
          Buffer.add_string buf
            (Printf.sprintf "Network %s attached to %s belongs to ISP %s.\n"
               (Prefix.to_string p) s s)
      | None -> ())
    t.spokes;
  Buffer.contents buf

let to_json t = Topology.to_json t.topology
