(** The memo tables for {!Batfish.Parse_check.check} and Search Route
    Policies' verdicts, per draft and per map, on the one bounded,
    thread-safe mechanism of {!Netcore.Memo_table}. The three tables here
    live for the life of the process, are shared by every domain, and hold
    only results of pure functions.

    A draft is hashed once, where it enters ({!Netcore.Draft}): the parse
    and draft tables read that hash, so each of their lookups costs a hash
    of a few words and one [compare]. The two other per-draft tables sit in
    front of their verifiers: Campion's answers
    ({!Campion.Differ.check_draft}, ["campion_memo"]) and the topology
    check's ({!Topoverify.Verifier.check_draft}, ["topology_memo"]).

    The parse table (named ["memo"]): the VPP loops re-verify the current
    draft after every prompt, and a stalled prompt (the simulated LLM
    "usually does nothing when asked to fix the error") leaves the draft
    byte-identical — so the same text is parsed and linted again and again.
    Parsing is pure, so the result is memoized on [(dialect, text)].

    The verdict table: each draft of the hub re-checks some 200 specs, but
    a fix touches one map, and the next loop or seed over the same star
    meets the same maps again. A map's verdicts are a pure function of its
    {!Batfish.Search_route_policies.verdict_key}, so they are memoized on
    it.

    The draft table: a loop hands the verifier the same draft text again
    and again (most of the no-transit loop's calls), and building one
    verdict key per map costs more than the lookups it saves. So the whole
    answer is memoized on [(text, specs)], in front of the verdict table,
    which still serves a new draft that changed one map. The draft and
    verdict tables are both named ["verdict_memo"]. *)

type stats = Netcore.Memo_table.stats = {
  hits : int;
  misses : int;
  entries : int;
  evictions : int;  (** Entries dropped by the bounded cap. *)
}

val check_draft :
  Batfish.Parse_check.dialect ->
  Netcore.Draft.t ->
  Policy.Config_ir.t * Netcore.Diag.t list
(** Same contract as {!Batfish.Parse_check.check} on the draft's text,
    memoized. *)

val check :
  Batfish.Parse_check.dialect ->
  string ->
  Policy.Config_ir.t * Netcore.Diag.t list
(** {!check_draft} on a text that enters here: it is hashed once. *)

val stats : unit -> stats
(** The parse table's counters: [Netcore.Memo_table.stats "memo"]. *)

val route_policies :
  Policy.Config_ir.t ->
  Batfish.Search_route_policies.spec list ->
  (Batfish.Search_route_policies.spec * Batfish.Search_route_policies.outcome) list
(** Exactly {!Batfish.Search_route_policies.check_all}'s outcomes, witnesses
    included, with each map's verdicts looked up in the verdict table. *)

val verdict_key_hash : Batfish.Search_route_policies.verdict_key -> int
(** The verdict table's key hash. It reads past the map's name into every
    stanza. *)

val route_policies_of_draft :
  Netcore.Draft.t ->
  Batfish.Search_route_policies.spec list ->
  (Batfish.Search_route_policies.spec * Batfish.Search_route_policies.outcome) list
(** [route_policies_of_draft draft specs] is {!route_policies} on the parse
    of the Cisco IOS [draft] ({!check_draft}), looked up first in the draft
    table on [(draft, specs)]. A miss parses through the parse table and
    asks the verdict table per map. *)

val reset : unit -> unit
(** {!Netcore.Memo_table.reset}: drop every entry of {e every} table in the
    process — the parse, draft and verdict tables here, Campion's answer
    and diff tables, the topology answers, the no-transit plans, the
    simulated LLM's renders and the whole-network verdicts — and zero their
    counters. *)
