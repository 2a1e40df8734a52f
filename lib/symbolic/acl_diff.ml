open Netcore
open Policy

(* ------------------------------------------------------------------ *)
(* Protocol sets                                                       *)
(* ------------------------------------------------------------------ *)

type proto_set = int

let proto_index = function
  | Packet.Tcp -> 0
  | Packet.Udp -> 1
  | Packet.Icmp -> 2
  | Packet.Other -> 3

let proto_full = 0b1111
let proto_singleton p = 1 lsl proto_index p
let proto_mem p t = t land proto_singleton p <> 0
let proto_inter a b = a land b
let proto_diff a b = a land lnot b
let proto_is_empty t = t = 0
let proto_choose t = List.find_opt (fun p -> proto_mem p t) Packet.all_protos

let proto_of_match = function
  | Acl.Any_proto -> proto_full
  | Acl.Proto p -> proto_singleton p

(* ------------------------------------------------------------------ *)
(* Address sets as /32 prefix spaces                                   *)
(* ------------------------------------------------------------------ *)

let addr_space_of_prefix p = Prefix_space.atom p (Len_set.singleton 32)
let addr_space_full = addr_space_of_prefix Prefix.default

let sample_addr space =
  (* Atoms only carry length 32, so any sample is a host prefix. *)
  Option.map Prefix.addr (Prefix_space.sample space)

let addr_mem a space = Prefix_space.mem (Prefix.host a) space

(* ------------------------------------------------------------------ *)
(* Packet cubes                                                        *)
(* ------------------------------------------------------------------ *)

type cube = {
  src : Prefix_space.t;
  dst : Prefix_space.t;
  protos : proto_set;
  ports : Port_set.t;
}

let cube_full =
  { src = addr_space_full; dst = addr_space_full; protos = proto_full; ports = Port_set.full }

let port_set_of_match = function
  | Acl.Any_port -> Port_set.full
  | Acl.Eq p -> Port_set.singleton p
  | Acl.Port_range (lo, hi) -> Port_set.range lo hi

let cube_of_entry (e : Acl.entry) =
  {
    src = addr_space_of_prefix e.Acl.src;
    dst = addr_space_of_prefix e.Acl.dst;
    protos = proto_of_match e.Acl.proto;
    ports = port_set_of_match e.Acl.dst_port;
  }

let cube_is_empty c =
  Prefix_space.is_empty c.src || Prefix_space.is_empty c.dst
  || proto_is_empty c.protos || Port_set.is_empty c.ports

let cube_inter a b =
  let c =
    {
      src = Prefix_space.inter a.src b.src;
      dst = Prefix_space.inter a.dst b.dst;
      protos = proto_inter a.protos b.protos;
      ports = Port_set.inter a.ports b.ports;
    }
  in
  if cube_is_empty c then None else Some c

(* Standard per-dimension peeling. *)
let cube_diff a b =
  let pieces = ref [] in
  let emit c = if not (cube_is_empty c) then pieces := c :: !pieces in
  emit { a with src = Prefix_space.diff a.src b.src };
  let src = Prefix_space.inter a.src b.src in
  if not (Prefix_space.is_empty src) then begin
    emit { a with src; dst = Prefix_space.diff a.dst b.dst };
    let dst = Prefix_space.inter a.dst b.dst in
    if not (Prefix_space.is_empty dst) then begin
      emit { a with src; dst; protos = proto_diff a.protos b.protos };
      let protos = proto_inter a.protos b.protos in
      if not (proto_is_empty protos) then
        emit { src; dst; protos; ports = Port_set.diff a.ports b.ports }
    end
  end;
  !pieces

let cube_satisfies (pkt : Packet.t) c =
  addr_mem pkt.Packet.src c.src && addr_mem pkt.Packet.dst c.dst
  && proto_mem pkt.Packet.proto c.protos
  && Port_set.mem pkt.Packet.dst_port c.ports

let sample_packet c =
  if cube_is_empty c then None
  else
    match (sample_addr c.src, sample_addr c.dst, proto_choose c.protos, Port_set.choose c.ports) with
    | Some src, Some dst, Some proto, Some dst_port ->
        Some { Packet.src; dst; proto; dst_port }
    | _ -> None

(* Space = list of cubes (union). *)
let space_inter a b = List.concat_map (fun x -> List.filter_map (cube_inter x) b) a

let space_diff a b =
  List.fold_left (fun acc y -> List.concat_map (fun x -> cube_diff x y) acc) a b

let space_is_empty s = List.for_all cube_is_empty s

(* ------------------------------------------------------------------ *)
(* Compilation and comparison                                          *)
(* ------------------------------------------------------------------ *)

type region = { space : cube list; action : Action.t; seq : int option }

let compile (acl : Acl.t) =
  let regions, remaining =
    List.fold_left
      (fun (regions, remaining) (e : Acl.entry) ->
        let guard = cube_of_entry e in
        let matched = space_inter remaining [ guard ] in
        let regions =
          if space_is_empty matched then regions
          else { space = matched; action = e.Acl.action; seq = Some e.Acl.seq } :: regions
        in
        (regions, space_diff remaining [ guard ]))
      ([], [ cube_full ]) acl.Acl.entries
  in
  let implicit =
    if space_is_empty remaining then []
    else [ { space = remaining; action = Action.Deny; seq = None } ]
  in
  List.rev regions @ implicit

type difference = {
  example : Packet.t;
  action_a : Action.t;
  action_b : Action.t;
  seq_a : int option;
  seq_b : int option;
}

let compare_acls a b =
  let regions_a = compile a and regions_b = compile b in
  List.concat_map
    (fun ra ->
      List.filter_map
        (fun rb ->
          if ra.action = rb.action then None
          else
            let overlap = space_inter ra.space rb.space in
            match List.find_map sample_packet overlap with
            | Some example ->
                Some
                  {
                    example;
                    action_a = ra.action;
                    action_b = rb.action;
                    seq_a = ra.seq;
                    seq_b = rb.seq;
                  }
            | None -> None)
        regions_b)
    regions_a

let equivalent a b = compare_acls a b = []
