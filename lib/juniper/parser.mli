(** Tolerant parser for the Junos dialect: statement tree → vendor-neutral
    IR plus located diagnostics, mirroring Batfish's Juniper front end.

    Targeted diagnostics include the paper's Table 2 cases: a BGP process
    with neither [routing-options autonomous-system] nor per-neighbor
    [local-as] ("Missing BGP local-as attribute"), and the invalid
    [1.2.3.0/24-32] prefix-list shorthand GPT-4 invents for Cisco's
    [ge]/[le] ranges. *)

val parse : string -> Policy.Config_ir.t * Netcore.Diag.t list
