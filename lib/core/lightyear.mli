(** Lightyear-style modular proof of the global no-transit policy.

    Section 4.1 runs a whole-network BGP simulation as the final check, but
    notes that "the proof technique of Lightyear [9] could instead be used
    to ensure that the local policies imply the global one". This module
    does exactly that: instead of simulating, it composes the hub's ingress
    policy for ISP i with its egress policy toward ISP j symbolically and
    proves the surviving route space empty for every ordered pair (i, j) —
    together with the structural side conditions that make the composition
    the only transit path.

    The proof is sound (a [Proved] result implies the simulation-based check
    passes — a property the test suite enforces) but conservative: the
    over-approximations in {!Symbolic.Compose} can refute configurations the
    simulation accepts.

    {!prove_no_transit} itself keeps nothing between calls. The VPP loops
    reach it through {!Driver.check_global}, whose process-wide table keeps
    each verdict keyed on the star and every config (a superset of the hub
    this proof reads), so a network any loop has proved before is not
    proved again. *)

open Netcore
open Policy

type refutation = {
  from_spoke : string;
  to_spoke : string;
  example : Route.t option;
      (** A route that, entering the hub from [from_spoke], can leave
          toward [to_spoke]. *)
}

type result =
  | Proved
  | Refuted of refutation
  | Inapplicable of string
      (** A structural side condition failed (missing policy attachment,
          hub originating an ISP prefix, ...); the proof does not apply. *)

val prove_no_transit : Star.t -> (string * Config_ir.t) list -> result

val side_conditions : Star.t -> (string * Config_ir.t) list -> string list
(** The structural preconditions, empty when all hold: the hub has a
    session with every spoke, each hub session has both an import and an
    export policy attached and defined, and the hub does not itself
    originate any ISP network. *)
