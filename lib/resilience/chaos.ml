type config = {
  seed : int;
  crash_rate : float;
  timeout_rate : float;
  flake_rate : float;
  truncate_rate : float;
  worker_loss_rate : float;
}

let none =
  {
    seed = 0;
    crash_rate = 0.;
    timeout_rate = 0.;
    flake_rate = 0.;
    truncate_rate = 0.;
    worker_loss_rate = 0.;
  }

let clamp r = Float.min 1. (Float.max 0. r)

let make ?(crash_rate = 0.) ?(timeout_rate = 0.) ?(flake_rate = 0.) ?(truncate_rate = 0.)
    ?(worker_loss_rate = 0.) ~seed () =
  {
    seed;
    crash_rate = clamp crash_rate;
    timeout_rate = clamp timeout_rate;
    flake_rate = clamp flake_rate;
    truncate_rate = clamp truncate_rate;
    worker_loss_rate = clamp worker_loss_rate;
  }

(* The verifier-level rates, which gate [arm]: a worker-loss-only config
   must leave every verifier on its fast [Ok (oracle input)] path. *)
let verifier_rates_zero c =
  c.crash_rate = 0. && c.timeout_rate = 0. && c.flake_rate = 0. && c.truncate_rate = 0.

let is_none c = verifier_rates_zero c && c.worker_loss_rate = 0.

let describe c =
  if is_none c then "no faults"
  else
    let parts =
      List.filter_map
        (fun (name, r) -> if r > 0. then Some (Printf.sprintf "%s %.2f" name r) else None)
        [
          ("crash", c.crash_rate);
          ("timeout", c.timeout_rate);
          ("flake", c.flake_rate);
          ("truncate", c.truncate_rate);
          ("worker-loss", c.worker_loss_rate);
        ]
    in
    Printf.sprintf "%s (seed %d)" (String.concat ", " parts) c.seed

let timeout_ticks = 4

(* Outage windows are drawn in [8, 24] ticks: long enough to outlast the
   default retry backoff (so crashes trip the breaker) but short enough
   that a breaker cooldown gives the verifier a realistic chance to have
   restarted by half-open time. *)
let outage rng = 8 + Netcore.Rng.int rng 17

(* Distinct large odd multipliers keep the (seed, salt, kind) streams
   disjoint under splitmix64's additive-gamma construction. *)
let stream_seed c ~salt kind =
  c.seed + (salt * 1_000_003) + ((Verifier.kind_index kind + 1) * 7_368_787)

let arm c ~salt ~clock v =
  if verifier_rates_zero c then ()
  else begin
    let rng = Netcore.Rng.make (stream_seed c ~salt (Verifier.kind v)) in
    let down_until = ref 0 in
    Verifier.install v (fun input ->
        let now = Clock.now clock in
        if now < !down_until then
          Error (Verifier.Crashed { down_ticks = !down_until - now })
        else if Netcore.Rng.bernoulli rng c.crash_rate then begin
          let d = outage rng in
          down_until := now + d;
          Error (Verifier.Crashed { down_ticks = d })
        end
        else if Netcore.Rng.bernoulli rng c.timeout_rate then begin
          Clock.advance clock timeout_ticks;
          Error (Verifier.Timed_out { ticks = timeout_ticks })
        end
        else if Netcore.Rng.bernoulli rng c.flake_rate then Error Verifier.Flaked
        else if Netcore.Rng.bernoulli rng c.truncate_rate then Error Verifier.Truncated
        else Verifier.run_oracle v input)
  end

(* Worker losses must be drawn order-independently: the supervisor consults
   the plan from whatever domain dispatches the task, so a sequential
   stream would make the schedule depend on pool scheduling. Instead every
   (task index, attempt) pair seeds its own one-draw splitmix64 stream,
   disjoint from the verifier and jitter streams by its own pair of large
   odd multipliers. *)
let worker_plan ?(in_flight = 0.) c ~salt : Exec.Supervisor.plan =
  let in_flight = Float.min 1. (Float.max 0. in_flight) in
  fun ~index ~attempt ->
    if c.worker_loss_rate <= 0. then None
    else
      let rng =
        Netcore.Rng.make
          (c.seed + (salt * 1_000_003) + (index * 9_368_843) + (attempt * 5_754_853))
      in
      if not (Netcore.Rng.bernoulli rng c.worker_loss_rate) then None
        (* The mode draw comes from the same stream, after the loss draw —
           it never perturbs the loss schedule itself. *)
      else if in_flight > 0. && Netcore.Rng.bernoulli rng in_flight then
        Some Exec.Supervisor.In_flight
      else Some Exec.Supervisor.At_dispatch
