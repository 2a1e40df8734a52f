(** Bounded, thread-safe memo tables for the results of pure functions.

    Every table is one mechanism: a lock around a hash table, the
    computation of a missing value {e outside} the lock (a concurrent
    duplicate computation is harmless — both compute the same value), and
    a constant cap at which the {e oldest eighth} of the entries is evicted
    (FIFO batch) rather than the whole table, so a long-lived warm process
    (a multi-day sweep, the [cosynth serve] daemon) keeps most of its
    working set hot across the boundary instead of restarting from a 0%
    hit rate. Tables live for the life of the process and are shared by
    every domain.

    The module sits at the bottom of the library graph so that any layer —
    the simulated LLM's renders as well as the verifiers' verdicts — can
    memoise on the same mechanism, and one {!reset} empties them all. *)

type stats = {
  hits : int;
  misses : int;
  entries : int;
  evictions : int;  (** Entries dropped by the bounded cap. *)
}

(** One bounded table over keys [K.t]. [K.hash] must look at every part of
    the key that tells two keys apart, or lookups degrade to structural
    comparisons along long bucket chains. *)
module Make (K : Hashtbl.HashedType) : sig
  type 'v t

  val create : cap:int -> 'v t
  (** An empty table holding at most [cap] entries (at least 1). It is
      registered with {!reset}. *)

  val find_result : 'v t -> K.t -> (unit -> ('v, 'e) result) -> ('v, 'e) result
  (** The cached value, or the result of the computation on a miss. The
      table is {e success-only}: an [Error] bypasses it untouched (and
      still counts as a miss), so a transient fault can never be memoized
      as truth. An exception raised by the computation propagates and
      stores nothing either. *)

  val find : 'v t -> K.t -> (unit -> 'v) -> 'v
  (** {!find_result} for a computation that cannot fail. *)

  val stats : 'v t -> stats
end

val sum : stats list -> stats
(** The counters of several tables added field by field, for a layer that
    memoises on more than one table. *)

val hit_rate : stats -> float
(** [hits / (hits + misses)]; 0 when the table is untouched. *)

val reset : unit -> unit
(** Drop every entry of {e every} table created in the process and zero
    their counters (used between bench sections so per-experiment hit rates
    are meaningful, and before a cold run). *)
