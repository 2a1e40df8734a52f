type policy = { failure_threshold : int; cooldown : int }

let default = { failure_threshold = 3; cooldown = 24 }

type state = Closed | Open | Half_open

type t = {
  policy : policy;
  mutable state : state;
  mutable streak : int;  (* consecutive failures *)
  mutable opened_at : int;
  mutable trips : int;
}

let create policy = { policy; state = Closed; streak = 0; opened_at = 0; trips = 0 }
let state t = t.state

let acquire t ~now =
  match t.state with
  | Closed | Half_open -> `Proceed
  | Open ->
      if now - t.opened_at >= t.policy.cooldown then begin
        t.state <- Half_open;
        `Proceed
      end
      else `Reject

let cooldown_left t ~now =
  match t.state with
  | Open -> max 0 (t.policy.cooldown - (now - t.opened_at))
  | Closed | Half_open -> 0

let record_success t =
  t.state <- Closed;
  t.streak <- 0

let trip t ~now =
  t.state <- Open;
  t.opened_at <- now;
  t.trips <- t.trips + 1;
  true

let record_failure t ~now =
  t.streak <- t.streak + 1;
  match t.state with
  | Half_open -> trip t ~now
  | Closed when t.streak >= t.policy.failure_threshold -> trip t ~now
  | Closed | Open -> false

let trips t = t.trips
