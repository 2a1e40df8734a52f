(** A per-verifier circuit breaker: closed → open → half-open.

    Closed: calls flow; [failure_threshold] consecutive failures trip the
    breaker open. Open: calls are rejected without touching the verifier
    until [cooldown] ticks have elapsed. Half-open: one trial call is let
    through — success closes the breaker, failure re-opens it (and counts
    as another trip). All timing is in simulated ticks. *)

type policy = {
  failure_threshold : int;  (** Consecutive failures that trip the breaker. *)
  cooldown : int;  (** Ticks open before allowing a half-open trial. *)
}

val default : policy
(** Threshold 3, cooldown 24 ticks. *)

type state = Closed | Open | Half_open

type t

val create : policy -> t

val state : t -> state

val acquire : t -> now:int -> [ `Proceed | `Reject ]
(** Ask to make a call at tick [now]. Transitions Open → Half_open when the
    cooldown has elapsed. *)

val cooldown_left : t -> now:int -> int
(** Ticks until a half-open trial is allowed; 0 unless open. *)

val record_success : t -> unit
(** Close the breaker and clear the failure streak. *)

val record_failure : t -> now:int -> bool
(** Record a failure at tick [now]; returns [true] when this failure
    tripped the breaker open (from closed past the threshold, or a failed
    half-open trial). *)

val trips : t -> int
(** Times the breaker has tripped open. *)
