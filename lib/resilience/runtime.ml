type config = { chaos : Chaos.config; round_budget : int; stage_budget : int }

let default_config = { chaos = Chaos.none; round_budget = 64; stage_budget = 32 }

let config ?(chaos = Chaos.none) ?(round_budget = 64) ?(stage_budget = 32) () =
  { chaos; round_budget; stage_budget }

type t = {
  cfg : config;
  salt : int;
  clock : Clock.t;
  jitter_rng : Netcore.Rng.t;
  breakers : Breaker.t array;
  mutable round_deadline : int;
}

let create ?(salt = 0) cfg =
  let clock = Clock.create () in
  {
    cfg;
    salt;
    clock;
    (* A stream disjoint from every Chaos.arm stream (kind multipliers
       start at 1 * 7_368_787). *)
    jitter_rng = Netcore.Rng.make (cfg.chaos.Chaos.seed + (salt * 1_000_003) + 97);
    breakers =
      (let kinds = Array.of_list Verifier.all_kinds in
       Array.map (fun k -> Breaker.create (Policies.for_kind k).Policies.breaker) kinds);
    round_deadline = Clock.now clock + cfg.round_budget;
  }

(* The child salt folds the sub-task index in on a distinct odd multiplier
   so sibling tasks (and the parent) never collide. *)
let derive t i = create ~salt:(t.salt + ((i + 1) * 524_287)) t.cfg

let arm t v =
  Chaos.arm t.cfg.chaos ~salt:t.salt ~clock:t.clock v;
  v

let new_round t = t.round_deadline <- Clock.now t.clock + t.cfg.round_budget

let breaker_for t kind = t.breakers.(Verifier.kind_index kind)

let call t v input =
  let kind = Verifier.kind v in
  let b = breaker_for t kind in
  match Breaker.acquire b ~now:(Clock.now t.clock) with
  | `Reject ->
      Stats.record_failure kind;
      Stats.record_degraded kind;
      Error
        (Printf.sprintf "circuit open (%d ticks until half-open)"
           (Breaker.cooldown_left b ~now:(Clock.now t.clock)))
  | `Proceed ->
      let retry = (Policies.for_kind kind).Policies.retry in
      let stage_start = Clock.now t.clock in
      let rec attempt failures =
        Stats.record_attempt kind;
        if failures > 0 then Stats.record_retry kind;
        Clock.advance t.clock 1;
        match Verifier.run v input with
        | Ok o ->
            Breaker.record_success b;
            Stats.record_call_attempts kind (failures + 1);
            Ok o
        | Error f ->
            Stats.record_failure kind;
            let now = Clock.now t.clock in
            if Breaker.record_failure b ~now then Stats.record_trip kind;
            let failures = failures + 1 in
            let give_up reason =
              Stats.record_degraded kind;
              Stats.record_call_attempts kind failures;
              Error reason
            in
            if failures >= retry.Retry.max_attempts then
              give_up
                (Printf.sprintf "%s; %d attempts exhausted"
                   (Verifier.failure_to_string f) failures)
            else if now - stage_start >= t.cfg.stage_budget then
              give_up
                (Printf.sprintf
                   "%s; stage watchdog: %d ticks in one stage (budget %d) \
                    after %d attempts"
                   (Verifier.failure_to_string f) (now - stage_start)
                   t.cfg.stage_budget failures)
            else if now >= t.round_deadline then
              give_up
                (Printf.sprintf "%s; round tick budget exhausted after %d attempts"
                   (Verifier.failure_to_string f) failures)
            else begin
              match Breaker.acquire b ~now with
              | `Reject ->
                  give_up
                    (Printf.sprintf "%s; breaker tripped after %d attempts"
                       (Verifier.failure_to_string f) failures)
              | `Proceed ->
                  Clock.advance t.clock (Retry.backoff retry t.jitter_rng ~failures);
                  attempt failures
            end
      in
      attempt 0

type note =
  | Degraded of Verifier.kind * string
  | Caught_lying of Verifier.kind
  | Quarantined of Verifier.kind
  | Restored of Verifier.kind * int
  | Outvoted of Verifier.kind
  | Overruled of Verifier.kind
  | Oracle_quarantined
  | Oracle_restored of int

type 'o verdict = Checked of 'o | Hand_checked of 'o | Crashed of Guard.crash

(* The simulated human consults the raw oracle, bypassing every installed
   schedule, lie and oracle service. It runs behind the firewall, labelled
   as the oracle service's default is. *)
let hand_run v input =
  Result.map_error
    (fun crash -> { crash with Guard.fingerprint = Guard.fingerprint_value input })
    (Guard.run
       ~label:(Verifier.kind_name (Verifier.kind v) ^ "/hand-check")
       (fun () -> Verifier.oracle v input))

let caught_lying ledger ~note v honest =
  let kind = Verifier.kind v in
  Trust.note_truth ledger kind ~dirty:(Verifier.dirty v honest);
  note (Caught_lying kind);
  (match Trust.disagree ledger kind with
  | `Quarantined -> note (Quarantined kind)
  | `Ok -> ());
  Hand_checked honest

(* In honest runs the referee is the answer that just agreed, so the audit
   is silent. *)
let audit ledger ~note v input r =
  let kind = Verifier.kind v in
  match hand_run v input with
  | Error c -> Crashed c
  | Ok referee when referee = r -> Checked r
  | Ok referee -> (
      match Trust.quorum_verdict ledger kind with
      | `Outvoted ->
          note (Outvoted kind);
          Checked r
      | `Overruled (kind_quarantined, oracle_quarantined) ->
          Trust.note_truth ledger kind ~dirty:(Verifier.dirty v referee);
          note (Overruled kind);
          if kind_quarantined then note (Quarantined kind);
          if oracle_quarantined then note Oracle_quarantined;
          Hand_checked referee)

let vet ledger ~note v input r =
  let kind = Verifier.kind v in
  let dirty = Verifier.dirty v r in
  if not (Trust.should_check ledger kind ~dirty) then Checked r
  else
    let oracle_out = Trust.oracle_quarantined ledger in
    match if oracle_out then hand_run v input else Verifier.oracle_runner v input with
    | Error c -> Crashed c
    | Ok honest ->
        (if oracle_out then
           match Verifier.oracle_runner v input with
           | Error _ -> ()
           | Ok service -> (
               match Trust.oracle_probation ledger ~agree:(service = honest) with
               | `Restored n -> note (Oracle_restored n)
               | `Still -> ()));
        if honest <> r then caught_lying ledger ~note v honest
        else begin
          Trust.agree ledger kind;
          if oracle_out || dirty || not (Trust.should_audit ledger kind) then Checked r
          else audit ledger ~note v input r
        end

let probation ledger ~note v input =
  let kind = Verifier.kind v in
  match hand_run v input with
  | Error c -> Crashed c
  | Ok honest ->
      Trust.note_truth ledger kind ~dirty:(Verifier.dirty v honest);
      (match Verifier.run v input with
      | Ok suspect -> (
          match Trust.probation ledger kind ~agree:(suspect = honest) with
          | `Restored n -> note (Restored (kind, n))
          | `Still -> ())
      | Error _ -> ());
      Hand_checked honest

let check t ?trust ~note v input =
  match trust with
  | Some ledger when Trust.quarantined ledger (Verifier.kind v) ->
      probation ledger ~note v input
  | _ -> (
      match call t v input with
      | Error reason -> (
          note (Degraded (Verifier.kind v, reason));
          match hand_run v input with Ok o -> Hand_checked o | Error c -> Crashed c)
      | Ok r -> (
          match trust with None -> Checked r | Some ledger -> vet ledger ~note v input r))

let breaker_state t kind = Breaker.state (breaker_for t kind)
let breaker_trips t kind = Breaker.trips (breaker_for t kind)
