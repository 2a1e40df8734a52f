(** Supervised execution over a {!Pool}: worker-domain fault tolerance for
    seeded sweeps.

    {!Pool.map} is fail-stop: the first task exception kills the whole map
    and every completed result with it, and a lost worker domain is not a
    concept it has. The supervisor adds the missing boundary. Every task
    runs under an exception/chaos boundary with a bounded per-task retry
    budget:

    - a {e worker-domain loss} (drawn from a seeded, deterministic [plan] —
      see [Resilience.Chaos.worker_plan]) burns the attempt — before the
      body runs ({!At_dispatch}) or after it, losing only the result
      ({!In_flight}) — really kills the worker domain when a pool is
      present ({!Pool.lose_current_worker}; a replacement is spawned), and
      re-dispatches the task;
    - a {e task exception} is caught at the boundary and the task is
      re-dispatched;
    - a task that exhausts its budget is recorded as {!Abandoned} — data,
      not an exception, so one poisoned seed can no longer destroy a
      20-seed sweep's completed work.

    Determinism: results come back in input order, the loss plan is keyed
    on a caller-chosen stable index (not on scheduling), and with no plan
    and no exceptions [map f xs] is exactly
    [List.map (fun x -> Completed (f x)) xs] on the same pool — so rate-0
    supervised sweeps are byte-identical to the raw {!Pool.map} output. *)

type 'b outcome =
  | Completed of 'b
  | Abandoned of { attempts : int; reason : string }
      (** The retry budget is spent; [reason] is the last loss or the
          printed exception. *)

val completed : 'b outcome -> 'b option
val abandoned : 'b outcome -> bool

type policy = { max_attempts : int  (** Dispatches per task, >= 1. *) }

val default_policy : policy
(** 4 attempts: survives three consecutive losses of the same task, which
    at the C2 acceptance rate (0.2 per dispatch) makes abandonment a
    sub-percent event per task. *)

type loss =
  | At_dispatch
      (** The domain dies before the task body runs: the attempt costs
          nothing but the dispatch. *)
  | In_flight
      (** The domain dies mid-task: the body runs to completion (side
          effects included, exceptions swallowed) but its result is lost
          with the domain. The retry re-runs work that already happened —
          the at-least-once delivery case every checkpoint codec must
          tolerate. *)

type plan = index:int -> attempt:int -> loss option
(** [plan ~index ~attempt] decides whether — and how — the worker domain
    dispatching attempt [attempt] (1-based) of task [index] is lost
    ([None] = survives). Must be pure and order-independent — it is
    consulted from worker domains in whatever order the pool schedules. *)

val run_one :
  ?pool:Pool.t -> ?plan:plan -> ?policy:policy -> index:int -> (unit -> 'b) ->
  'b outcome
(** Supervise a single task (the sequential seed loops of the CLI). *)

val map :
  ?pool:Pool.t ->
  ?plan:plan ->
  ?policy:policy ->
  ?index_of:('a -> int) ->
  ('a -> 'b) ->
  'a list ->
  'b outcome list
(** Supervised {!Pool.map}: input order preserved, never raises from a task.
    [index_of] gives each task its stable plan index (default: its list
    position); sweeps pass the seed itself so a resumed sweep draws the
    same schedule for the seeds it re-runs. *)

(** {2 Process-wide counters}

    One record under one lock, like [Resilience.Stats]: it aggregates
    across every supervised map and every worker domain since process
    start, feeds [Cosynth.Metrics.perf], and never influences control
    flow. *)

type counters = {
  dispatched : int;  (** Task dispatches, including re-dispatches. *)
  completed : int;  (** Tasks that returned a value. *)
  losses : int;  (** Worker-domain losses drawn from the plan. *)
  requeues : int;  (** Re-dispatches after a loss or an exception. *)
  task_exceptions : int;  (** Exceptions caught at the boundary. *)
  abandoned : int;  (** Tasks that exhausted their budget. *)
}

val stats : unit -> counters
val diff : counters -> counters -> counters
(** [diff before after]: the deltas for a measured section. *)
