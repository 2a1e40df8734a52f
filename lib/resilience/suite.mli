(** The standard wrapped verifier suite for one resilience context.

    One armed {!Verifier.t} per checker the local VPP loops call. Each stage
    is handed the draft with the hash it carries ({!Netcore.Draft}), and
    each answers a draft it has answered before with one lookup on that
    hash. The syntax check's oracle is {!Exec.Memo.check_draft}, wrapped
    inside the chaos gate: the gate runs {e before} the cache is consulted,
    so an injected fault never reaches the table (and can never be memoized
    as truth) and cache state can never shift the fault schedule.

    The Campion and topology stages also get the IR the syntax stage parsed
    from the draft, and must only ever get that IR: their oracles,
    {!Campion.Differ.check_draft} and {!Topoverify.Verifier.check_draft},
    key their answers on the draft's text and compute them from the IR. A
    new draft reaches Campion's policy and ACL diff tables, so a fix that
    touched one route map diffs that map only.
    The Search Route Policies oracle is {!Exec.Memo.route_policies_of_draft}.
    It is handed the Cisco IOS draft text, as the real verifier is, and
    keeps its answer in a process-wide table keyed on [(text, specs)]. A new
    draft is parsed through the parse table and checked map by map against
    a second process-wide table, so a draft that changed one route map
    checks that map only, and a later loop over the same star checks none
    it has seen. All these tables are bounded, domain-safe and live for the
    process, so every loop, sweep seed and [serve] request shares them.
    The chaos, lie and trust layers all wrap these oracles, so only
    pristine results are memoised. That ordering is what keeps faults and
    lies out of the tables: {!Netcore.Memo_table} stores whatever its
    computation returns. A suite belongs to one loop in one domain.

    The global no-transit check is use-case-specific, so the driver wraps
    it itself with {!Verifier.wrap} [Bgp_sim] + {!Runtime.arm}. *)

type t = {
  runtime : Runtime.t;
  parse :
    ( Batfish.Parse_check.dialect * Netcore.Draft.t,
      Policy.Config_ir.t * Netcore.Diag.t list )
    Verifier.t;
  campion :
    ( (Netcore.Draft.t * Policy.Config_ir.t) * (Netcore.Draft.t * Policy.Config_ir.t),
      Campion.Differ.finding list )
    Verifier.t;
      (** Input: [((original text, its IR), (draft, its IR))]. *)
  topology :
    ( Netcore.Topology.t * string * Netcore.Draft.t * Policy.Config_ir.t,
      Topoverify.Verifier.finding list )
    Verifier.t;
      (** Input: [(topology, router, draft, its IR)]. *)
  route_policies :
    ( Netcore.Draft.t * Batfish.Search_route_policies.spec list,
      (Batfish.Search_route_policies.spec * Batfish.Search_route_policies.outcome) list
    )
    Verifier.t;
      (** Input: [(draft, specs)]. *)
}

val make : Runtime.t -> t
