type counters = {
  attempts : int;
  retries : int;
  failures : int;
  breaker_trips : int;
  degraded : int;
  max_attempts : int;
}

let zero =
  {
    attempts = 0;
    retries = 0;
    failures = 0;
    breaker_trips = 0;
    degraded = 0;
    max_attempts = 0;
  }

let add a b =
  {
    attempts = a.attempts + b.attempts;
    retries = a.retries + b.retries;
    failures = a.failures + b.failures;
    breaker_trips = a.breaker_trips + b.breaker_trips;
    degraded = a.degraded + b.degraded;
    max_attempts = Stdlib.max a.max_attempts b.max_attempts;
  }

(* One immutable record per kind, replaced whole under one lock: a bump
   never loses a concurrent update, and a snapshot is one consistent view
   across every kind. *)
let lock = Mutex.create ()
let cells = Array.make (List.length Verifier.all_kinds) zero

let update kind f =
  let i = Verifier.kind_index kind in
  Mutex.protect lock (fun () -> cells.(i) <- f cells.(i))

let record_attempt k = update k (fun c -> { c with attempts = c.attempts + 1 })
let record_retry k = update k (fun c -> { c with retries = c.retries + 1 })
let record_failure k = update k (fun c -> { c with failures = c.failures + 1 })
let record_trip k = update k (fun c -> { c with breaker_trips = c.breaker_trips + 1 })
let record_degraded k = update k (fun c -> { c with degraded = c.degraded + 1 })

let record_call_attempts k n =
  update k (fun c -> { c with max_attempts = Stdlib.max c.max_attempts n })

let snapshot () =
  Mutex.protect lock (fun () ->
      List.map (fun k -> (k, cells.(Verifier.kind_index k))) Verifier.all_kinds)

let diff before after =
  List.map
    (fun (k, a) ->
      let b = try List.assoc k before with Not_found -> zero in
      ( k,
        {
          attempts = a.attempts - b.attempts;
          retries = a.retries - b.retries;
          failures = a.failures - b.failures;
          breaker_trips = a.breaker_trips - b.breaker_trips;
          degraded = a.degraded - b.degraded;
          (* A gauge cannot be differenced; the section's high-water mark
             is the global one whenever the section recorded anything. *)
          max_attempts = (if a.attempts > b.attempts then a.max_attempts else 0);
        } ))
    after
