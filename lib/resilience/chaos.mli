(** The seeded, deterministic fault injector.

    A chaos configuration is a set of per-call fault rates plus a seed. When
    armed on a wrapped verifier it installs a fault schedule drawn from a
    splitmix64 stream derived from [(seed, salt, verifier kind)] — so a
    chaos run is exactly reproducible from its configuration, and two
    verifiers (or two derived contexts) never share a stream.

    Fault model, per call, drawn in this order:
    - {b crash}: the verifier process dies and stays down for a drawn
      outage window (8–24 ticks); every call inside the window fails too —
      this is what gives the circuit breaker something to protect.
    - {b timeout}: the call burns a timeout budget of ticks, then fails.
    - {b flake}: a transient failure; an immediate retry may succeed.
    - {b truncate}: the response arrives truncated and is discarded (a
      truncated findings list must never read as a clean pass).

    A fifth rate lives one level up from the verifiers: {b worker loss}
    kills the pool domain dispatching a task (see
    {!Exec.Supervisor} and {!worker_plan}) rather than failing a verifier
    call. It never installs anything on a verifier, so a worker-loss-only
    configuration keeps every verifier on its fast path.

    With every verifier rate at 0 arming is a no-op: the verifier keeps
    its fast [Ok (oracle input)] path and draws nothing. *)

type config = {
  seed : int;
  crash_rate : float;
  timeout_rate : float;
  flake_rate : float;
  truncate_rate : float;
  worker_loss_rate : float;
      (** Per-dispatch probability that the worker domain dies ({!worker_plan}). *)
}

val none : config
(** All rates 0 — no schedule is ever installed. *)

val make :
  ?crash_rate:float ->
  ?timeout_rate:float ->
  ?flake_rate:float ->
  ?truncate_rate:float ->
  ?worker_loss_rate:float ->
  seed:int ->
  unit ->
  config
(** Rates default to 0 and are clamped to [0, 1]. *)

val describe : config -> string
(** E.g. ["crash 0.10, timeout 0.05 (seed 7)"]; ["no faults"] for {!none}. *)

val arm : config -> salt:int -> clock:Clock.t -> ('i, 'o) Verifier.t -> unit
(** Install the fault schedule for this configuration on the verifier,
    timing outages and timeouts against [clock]. No-op when every verifier
    rate is 0 (the worker-loss rate does not count: it is not a verifier
    fault). *)

val worker_plan : ?in_flight:float -> config -> salt:int -> Exec.Supervisor.plan
(** The worker-domain-loss schedule for {!Exec.Supervisor}: a pure,
    order-independent plan drawing each [(index, attempt)] decision from
    its own stream seeded by [(seed, salt, index, attempt)] — so the
    schedule is identical however the pool interleaves tasks, and a
    resumed sweep re-draws the same fate for the seeds it re-runs.
    [in_flight] (default 0, clamped to [0, 1]) is the fraction of losses
    that strike mid-task ([Exec.Supervisor.In_flight]) rather than at
    dispatch; the mode draw follows the loss draw on the same stream, so
    varying it never changes {e which} dispatches are lost. Always [None]
    when [worker_loss_rate = 0]. *)
