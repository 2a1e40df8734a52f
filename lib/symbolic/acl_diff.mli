(** Symbolic comparison of access control lists — the data-plane half of
    Campion's policy behavior differences ("a route map or access control
    list has a semantic difference").

    The packet space is the product of source addresses, destination
    addresses (both as address sets, encoded as /32 prefix spaces), the
    protocol, and the destination port. The algebra is exact, so
    counterexample packets are always produced for real differences. *)

open Netcore
open Policy

type proto_set
(** Subsets of {!Netcore.Packet.proto}. *)

type cube = {
  src : Prefix_space.t;  (** /32 atoms: a set of addresses. *)
  dst : Prefix_space.t;
  protos : proto_set;
  ports : Port_set.t;
}

val cube_satisfies : Packet.t -> cube -> bool

type region = { space : cube list; action : Action.t; seq : int option }

val compile : Acl.t -> region list
(** Disjoint covering regions in entry order, final implicit deny. *)

type difference = {
  example : Packet.t;
  action_a : Action.t;
  action_b : Action.t;
  seq_a : int option;
  seq_b : int option;
}

val compare_acls : Acl.t -> Acl.t -> difference list
(** All regions where the two ACLs disagree, each with a concrete witness
    packet. Empty iff the ACLs are semantically equivalent. *)

val equivalent : Acl.t -> Acl.t -> bool
