(** Bounded, thread-safe, named memo tables for the results of pure
    functions.

    Every table is one mechanism: a lock around a hash table, the
    computation of a missing value {e outside} the lock (a concurrent
    duplicate computation is harmless — both compute the same value), and
    a constant cap at which the {e oldest eighth} of the entries is evicted
    (FIFO batch) rather than the whole table, so a long-lived warm process
    (a multi-day sweep, the [cosynth serve] daemon) keeps most of its
    working set hot across the boundary instead of restarting from a 0%
    hit rate. Tables live for the life of the process and are shared by
    every domain.

    Keys are compared with [compare a b = 0], so a key type must hold no
    floats or closures; [compare] returns at once on sub-values that are
    the same object, which keys built from one plan or one parse share.

    The module sits at the bottom of the library graph so that any layer —
    the simulated LLM's renders as well as the verifiers' verdicts — can
    memoise on the same mechanism. One {!reset} empties them all, and
    {!stats} reads them by name. *)

type stats = {
  hits : int;
      (** Lookups that stored nothing; a domain that computes a key another
          domain stores first counts one, so hits depend on scheduling. *)
  misses : int;  (** Values stored: [misses = entries + evictions] always. *)
  entries : int;
  evictions : int;  (** Entries dropped by the bounded cap. *)
}

(** One bounded table over keys [K.t]. [K.hash] must look at every part of
    the key that tells two keys apart, or lookups degrade to comparisons
    along long bucket chains. *)
module Make (K : sig
  type t

  val hash : t -> int
end) : sig
  type 'v t

  val create : name:string -> cap:int -> 'v t
  (** An empty table holding at most [cap] entries (at least 1). It is
      registered under [name] with {!reset} and {!stats}. *)

  val find : 'v t -> K.t -> (unit -> 'v) -> 'v
  (** The cached value, or the result of the computation on a miss, which
      is stored. An exception raised by the computation propagates and
      stores nothing. *)
end

val stats : string -> stats
(** The counters of every table created under this name, added field by
    field. Raises [Invalid_argument] when no table has the name. *)

val hit_rate : stats -> float
(** [hits / (hits + misses)]; 0 when the table is untouched. *)

val reset : unit -> unit
(** Drop every entry of {e every} table created in the process and zero
    their counters (used between bench sections so per-experiment hit rates
    are meaningful, and before a cold run). *)
