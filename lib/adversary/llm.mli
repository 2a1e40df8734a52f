(** The Byzantine LLM: a seeded, deterministic misbehaviour wrapper around
    {!Llmsim.Chat}.

    Each draft/response passes through per-mode coin flips keyed on
    [(seed, salt, counter, mode)] — one-shot RNG streams disjoint from every
    chaos and mutator stream — so a run is a pure function of the
    configuration and replaying a seed reproduces the misbehaviour exactly.
    With every rate at 0 the wrapper is the identity. *)

type mode =
  | Truncated  (** The reply is a strict prefix of the real draft. *)
  | Wrong_dialect  (** The draft is rendered in the other dialect. *)
  | Stale  (** The reply ignores the latest prompt (chat state untouched). *)
  | Partial_fix  (** Only the first fault reference of the prompt is applied. *)
  | Off_topic  (** Prose filler instead of a configuration. *)

val all_modes : mode list
val mode_name : mode -> string

type config = {
  truncated : float;
  wrong_dialect : float;
  stale : float;
  partial_fix : float;
  off_topic : float;
  seed : int;
}

val make :
  ?truncated:float ->
  ?wrong_dialect:float ->
  ?stale:float ->
  ?partial_fix:float ->
  ?off_topic:float ->
  ?seed:int ->
  unit ->
  config
(** All rates default to 0; [seed] defaults to 0. *)

val none : config
val with_rate : config -> mode -> float -> config
val is_none : config -> bool
val describe : config -> string

type t
(** Per-loop wrapper state (draft/respond counters). *)

val create : ?salt:int -> config -> t
val derive : t -> int -> t
(** An independent stream for fan-out task [idx]; deterministic whether the
    tasks run sequentially or on a pool. *)

val draft : t -> Llmsim.Chat.t -> Netcore.Draft.t
(** The possibly-corrupted draft for this round ([Truncated],
    [Wrong_dialect] and [Off_topic] act here). An honest draft is
    {!Llmsim.Chat.hashed_draft}'s; a forged one is hashed here. *)

val respond : t -> Llmsim.Chat.t -> Llmsim.Chat.prompt -> unit
(** Deliver a correction prompt through the wrapper ([Stale] and
    [Partial_fix] act here). *)
