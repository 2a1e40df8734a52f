(** Feedback corruption: mangles verifier findings after the {!Resilience}
    boundary has produced them, exercising the humanizer and the driver's
    accounting on hostile input. Seeded and deterministic like {!Llm}; with
    every rate at 0 the layer is the identity. *)

type mode =
  | Dropped  (** The finding never reaches the driver. *)
  | Duplicated  (** The same finding is delivered twice. *)
  | Misattributed
      (** The fault references point at the wrong class/location (the
          "wrong router" corruption), so the prompt fixes nothing. *)
  | Garbled  (** The text is mangled and the structured refs are lost. *)

val all_modes : mode list
val mode_name : mode -> string

type config = {
  dropped : float;
  duplicated : float;
  misattributed : float;
  garbled : float;
  seed : int;
}

val make :
  ?dropped:float ->
  ?duplicated:float ->
  ?misattributed:float ->
  ?garbled:float ->
  ?seed:int ->
  unit ->
  config

val none : config
val with_rate : config -> mode -> float -> config
val is_none : config -> bool
val describe : config -> string

type t

val create : ?salt:int -> config -> t
val derive : t -> int -> t

val corrupt :
  t -> text:string -> refs:Llmsim.Fault.t list -> (string * Llmsim.Fault.t list) list
(** Pass one finding through the corruption layer. Each returned pair is
    delivered as one prompt; [[]] means the finding was dropped. Total on
    arbitrary text/refs. *)
