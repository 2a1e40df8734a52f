(** A thread-safe memo cache for {!Batfish.Parse_check.check}.

    The VPP loops re-verify the current draft after every prompt, and a
    stalled prompt (the simulated LLM "usually does nothing when asked to
    fix the error") leaves the draft byte-identical — so the same text is
    parsed and linted again and again. Parsing is pure, so the result can
    be memoized on [(dialect, text)]. The cache is shared across domains
    and guarded by a mutex; parse work happens outside the lock (a
    concurrent duplicate parse is harmless — both compute the same
    value). *)

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
    eviction and failed parses: consult the cache; on a miss run [parse].
    The table is {e success-only} — only [Ok] results are cached, and an
    [Error] (a crashed, flaky or truncated verifier call) bypasses the
    table untouched, so a transient fault can never be memoized as truth.
    A bypassed failure still counts as a miss in {!stats}. *)

type stats = {
  hits : int;
  misses : int;
  entries : int;
  evictions : int;
      (** Entries dropped by the bounded cap. When the table reaches its
          cap, the {e oldest eighth} of the entries is evicted (FIFO batch)
          rather than the whole table — a long-lived warm process (a
          multi-day sweep, the [cosynth serve] daemon) keeps most of its
          working set hot across the boundary instead of restarting from a
          0% hit rate. *)
}

val stats : unit -> stats

val hit_rate : stats -> float
(** [hits / (hits + misses)]; 0 when the cache is untouched. *)

val reset : unit -> unit
(** Drop every entry and zero the counters (used between bench sections so
    per-experiment hit rates are meaningful). *)
