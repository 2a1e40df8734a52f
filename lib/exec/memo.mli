(** Bounded, thread-safe memo tables, and the ones for
    {!Batfish.Parse_check.check} and Search Route Policies' verdicts.

    Every table here is one mechanism: a lock around a hash table, the
    computation of a missing value {e outside} the lock (a concurrent
    duplicate computation is harmless — both compute the same value), and
    a constant cap at which the {e oldest eighth} of the entries is evicted
    (FIFO batch) rather than the whole table, so a long-lived warm process
    (a multi-day sweep, the [cosynth serve] daemon) keeps most of its
    working set hot across the boundary instead of restarting from a 0%
    hit rate. Tables live for the life of the process, are shared by every
    domain, and hold only results of pure functions.

    The parse table: the VPP loops re-verify the current draft after every
    prompt, and a stalled prompt (the simulated LLM "usually does nothing
    when asked to fix the error") leaves the draft byte-identical — so the
    same text is parsed and linted again and again. Parsing is pure, so the
    result is memoized on [(dialect, text)].

    The verdict table: each draft of the hub re-checks some 200 specs, but
    a fix touches one map, and the next loop or seed over the same star
    meets the same maps again. A map's verdicts are a pure function of its
    {!Batfish.Search_route_policies.verdict_key}, so they are memoized on
    it. *)

type stats = {
  hits : int;
  misses : int;
  entries : int;
  evictions : int;  (** Entries dropped by the bounded cap. *)
}

(** One bounded table over keys [K.t]. [K.hash] must look at every part of
    the key that tells two keys apart, or lookups degrade to structural
    comparisons along long bucket chains. *)
module Table (K : Hashtbl.HashedType) : sig
  type 'v t

  val create : cap:int -> 'v t
  (** An empty table holding at most [cap] entries (at least 1). It is
      registered with {!reset}. *)

  val find_result : 'v t -> K.t -> (unit -> ('v, 'e) result) -> ('v, 'e) result
  (** The cached value, or the result of the computation on a miss. The
      table is {e success-only}: an [Error] bypasses it untouched (and
      still counts as a miss), so a transient fault can never be memoized
      as truth. *)

  val find : 'v t -> K.t -> (unit -> 'v) -> 'v
  (** {!find_result} for a computation that cannot fail. *)

  val stats : 'v t -> stats
end

val check :
  Batfish.Parse_check.dialect ->
  string ->
  Policy.Config_ir.t * Netcore.Diag.t list
(** Same contract as {!Batfish.Parse_check.check}, memoized. *)

val check_result :
  Batfish.Parse_check.dialect ->
  string ->
  parse:(unit -> (Policy.Config_ir.t * Netcore.Diag.t list, 'e) result) ->
  (Policy.Config_ir.t * Netcore.Diag.t list, 'e) result
(** The failure-aware seam under {!check}, which the tests use to drive
    eviction and failed parses: {!Table.find_result} on the parse table. *)

val stats : unit -> stats
(** The parse table's counters. *)

val route_policies :
  Policy.Config_ir.t ->
  Batfish.Search_route_policies.spec list ->
  (Batfish.Search_route_policies.spec * Batfish.Search_route_policies.outcome) list
(** Exactly {!Batfish.Search_route_policies.check_all}'s outcomes, witnesses
    included, with each map's verdicts looked up in the verdict table. *)

val verdict_cap : int
(** The verdict table's cap. *)

val verdict_stats : unit -> stats
(** The verdict table's counters: one lookup per route map per call. *)

val verdict_key_hash : Batfish.Search_route_policies.verdict_key -> int
(** The verdict table's key hash. It reads past the map's name into every
    stanza. *)

val hit_rate : stats -> float
(** [hits / (hits + misses)]; 0 when the cache is untouched. *)

val reset : unit -> unit
(** Drop every entry of {e every} table — the parse and verdict tables and
    any other {!Table.create}d in the process, such as Campion's diff
    tables and the no-transit plans — and
    zero their counters (used between bench sections so per-experiment hit
    rates are meaningful, and before a cold run). *)
