(** A fixed-size Domain-based worker pool with deterministic result
    ordering.

    Jobs submitted through {!map} run on worker domains (OCaml 5 [Domain]s
    coordinated with a [Mutex]/[Condition] work queue); results are
    returned in submission order regardless of which worker finished
    first, so a parallel map is observably identical to [List.map] as long
    as the job function itself is deterministic and the jobs are
    data-independent.

    The caller of {!map} helps drain the queue while waiting, so nested
    [map] calls from inside a job (e.g. a seeded sweep whose body
    parallelizes per-router synthesis on the same pool) cannot deadlock
    even when every worker is busy. *)

type t

val max_size : int
(** The most worker domains one pool may have: 64, half the OCaml
    runtime's limit of 128 domains per process on 64-bit platforms, so a
    pool's worker replacements and the other pools a process runs stay
    spawnable. *)

val create : ?domains:int -> unit -> t
(** Spawn a pool of [domains] workers (default {!default_size}). A pool
    with [domains = 0] executes every job on the calling domain — the
    sequential baseline with the same API.
    @raise Invalid_argument naming the size when it exceeds {!max_size}. *)

val default_size : unit -> int
(** The [COSYNTH_POOL_SIZE] environment variable when set ([0] forces the
    sequential pool), otherwise [Domain.recommended_domain_count () - 1]
    clamped to [\[1, 8\]]. *)

val size : t -> int
(** Number of worker domains (0 for a sequential pool). *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** [map t f xs] runs [f] on every element, in parallel up to [size t],
    and returns the results in input order. The first job exception (in
    input order) is re-raised after all jobs settle. *)

val map_seq : ('a -> 'b) -> 'a list -> 'b list
(** [List.map] with the same exception behavior as {!map}; the reference
    implementation parallel runs must match bit-for-bit. *)

val lose_current_worker : t -> unit
(** Simulate the loss of the worker domain executing the current job (the
    {!Supervisor}'s chaos hook). After the job settles, the flagged domain
    exits its loop and a replacement is spawned in its place — a real
    domain restart, counted in {!stats}. When the job ran on the calling
    domain (a stolen job, or a sequential pool) the loss is absorbed as an
    instantaneous restart: the caller owns the map and cannot die. Result
    ordering and values are unaffected — only scheduling and the restart
    counter observe the loss. *)

(** {2 Utilization statistics} *)

type stats = {
  domains : int;  (** Worker count. *)
  jobs_completed : int;  (** Jobs finished since creation (all maps). *)
  busy_s : float;  (** Summed per-worker seconds spent inside jobs. *)
  wall_s : float;  (** Seconds since the pool was created. *)
  restarts : int;
      (** Worker domains lost and replaced ({!lose_current_worker}). *)
}

val stats : t -> stats

val utilization : stats -> float
(** [busy / (wall * domains)] in [0, 1]; 0 for a sequential pool. *)

val shutdown : t -> unit
(** Stop accepting work and join every worker. Idempotent; outstanding
    jobs finish first. *)
