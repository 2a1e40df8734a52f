(** The modularizer: turns the machine-readable topology plus the global
    no-transit intent into per-router natural-language prompts, per-router
    local policies (for the semantic verifier) and the reference
    configurations that define the synthesis task — "the user needs to
    decide and describe the 'roles' each node plays in satisfying the global
    spec".

    The local policy decomposition is the paper's: the hub adds a distinct
    community at the ingress from each ISP and drops routes carrying any
    other ISP's community at the egress to each ISP; spokes just announce
    their networks. *)

open Netcore
open Policy

type router_task = {
  router : string;
  prompt : string;  (** The NL prompt: topology slice plus local policy. *)
  correct : Config_ir.t;  (** The oracle configuration for the router. *)
  specs : Batfish.Search_route_policies.spec list;
      (** Local policies for the semantic verifier. *)
}

val ingress_map_name : string -> string
(** [TAG_R<k>]. *)

val egress_map_name : string -> string
(** [FILTER_COMM_OUT_R<k>]. *)

val plan : Star.t -> router_task list
(** Hub first, then spokes in order. Plans are memoised per star in a small
    process-wide {!Netcore.Memo_table} named ["plan_memo"], so every loop
    over one star shares its tasks and specs. *)

val prepend_task : Star.t -> target:string -> prepend:int list -> router_task
(** The incremental-policy task of the paper's conclusion ("Can GPT-4 add a
    new policy incrementally without interfering with existing verified
    policy?"): starting from the verified hub, additionally prepend the
    given ASes to every route exported to [target]. The task's [correct]
    config applies the prepend in the egress map's final accepting term; its
    [specs] are the original hub specs {e plus} the new prepend requirement,
    so any interference with the verified no-transit policy is caught by the
    same verifier. Raises [Invalid_argument] when [target] is not a
    spoke. *)

val as_path_hub_config : Star.t -> Config_ir.t
(** The "innovative strategy" GPT-4 proposed under global prompting
    (Section 4.1): instead of community tagging, the hub filters its egress
    to each ISP with AS-path regular expressions that reject routes whose
    path already contains another ISP's AS. The strategy is semantically
    sound (a test shows the global policy holds) — the paper's point is that
    GPT-4 could not {e converge} on it under global counterexample
    feedback, not that it was wrong. *)

val compose : Star.t -> (string * Config_ir.t) list -> Batfish.Bgp_sim.network
(** The composer: assemble per-router configs into the simulation input
    ("puts back the pieces ... in a folder for Batfish"). *)

val no_transit_holds :
  Star.t -> (string * Config_ir.t) list -> (bool * string list)
(** The global check, via full BGP simulation: no ISP reaches another ISP's
    network, every ISP reaches the CUSTOMER network, and the hub reaches
    every ISP network. Returns the list of violations. *)

val transit_violations : Star.t -> (string * Config_ir.t) list -> string list
(** Only the isolation half of the global policy (the part the Lightyear
    proof covers): pairs of ISPs that can reach each other's networks. *)
