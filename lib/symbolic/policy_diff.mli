(** Behavioral comparison of two routing policies — the symbolic core of the
    Campion-style "policy behavior difference" detector. *)

open Netcore
open Policy

type kind =
  | Action_mismatch
      (** The two policies disagree on permit/deny somewhere. *)
  | Effect_mismatch of (string * string * string) list
      (** Both permit, but apply different transforms: [(attribute, value_a,
          value_b)] per differing attribute. *)

type difference = {
  space : Pred.t;  (** Where the behaviours differ. *)
  example : Route.t option;  (** A concrete witness, when sampleable. *)
  action_a : Action.t;
  action_b : Action.t;
  seq_a : int option;
  seq_b : int option;
  kind : kind;
}

val compare_maps :
  env_a:Eval.env ->
  env_b:Eval.env ->
  ?universe:As_path.t list ->
  Route_map.t ->
  Route_map.t ->
  difference list
(** All regions of route space where the two maps behave differently. The
    pair of implicit-deny regions is never reported. *)

val equivalent :
  env_a:Eval.env -> env_b:Eval.env -> Route_map.t -> Route_map.t -> bool
