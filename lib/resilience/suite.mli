(** The standard wrapped verifier suite for one resilience context.

    One armed {!Verifier.t} per checker the local VPP loops call. The
    syntax check's oracle is {!Exec.Memo.check}, wrapped inside the chaos
    gate: the gate runs {e before} the cache is consulted, so an injected
    fault never reaches the table (and can never be memoized as truth) and
    cache state can never shift the fault schedule.

    The Campion oracle is {!Campion.Differ.check} on one checker owned by
    the suite, so one loop's drafts share its memoised policy and ACL
    diffs. The chaos, lie and trust layers all wrap that oracle, so only
    pristine results are memoised. A suite belongs to one loop in one
    domain.

    The global no-transit check is use-case-specific, so the driver wraps
    it itself with {!Verifier.wrap} [Bgp_sim] + {!Runtime.arm}. *)

type t = {
  runtime : Runtime.t;
  parse :
    ( Batfish.Parse_check.dialect * string,
      Policy.Config_ir.t * Netcore.Diag.t list )
    Verifier.t;
  campion :
    (Policy.Config_ir.t * Policy.Config_ir.t, Campion.Differ.finding list) Verifier.t;
      (** Input: [(original, translation)]. *)
  topology :
    ( Netcore.Topology.t * string * Policy.Config_ir.t,
      Topoverify.Verifier.finding list )
    Verifier.t;
      (** Input: [(topology, router, config)]. *)
  route_policies :
    ( Policy.Config_ir.t * Batfish.Search_route_policies.spec list,
      (Batfish.Search_route_policies.spec * Batfish.Search_route_policies.outcome) list
    )
    Verifier.t;
}

val make : Runtime.t -> t
