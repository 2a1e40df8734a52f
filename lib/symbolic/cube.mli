(** Product constraints over the route-announcement space: one prefix-space
    component and one cube per remaining dimension (communities, source
    protocol, MED, AS path). *)

open Netcore

type t = {
  prefixes : Prefix_space.t;
  comms : Comm_constr.t;
  sources : Source_set.t;
  med : Int_constr.t;
  aspath : Aspath_constr.t;
}

val full : t

val make :
  ?prefixes:Prefix_space.t ->
  ?comms:Comm_constr.t ->
  ?sources:Source_set.t ->
  ?med:Int_constr.t ->
  ?aspath:Aspath_constr.t ->
  unit ->
  t

val is_empty : t -> bool
(** True when any dimension is empty. (AS-path cubes are never considered
    empty on their own except by direct contradiction.) *)

val inter : t -> t -> t option
val diff : t -> t -> t list
(** Difference as a union of cubes (the standard per-dimension peeling). *)

val satisfies : env:Policy.Eval.env -> Route.t -> t -> bool

val sample :
  env:Policy.Eval.env -> universe:As_path.t list -> t -> Route.t option
(** A concrete witness, [None] when the cube is empty or no AS path in
    [universe] satisfies the AS-path component. *)
