(* Feedback corruption: what reaches the humanizer/driver after the
   verifier answered (post-Guard, so the finding itself is well-formed —
   the corruption models a hostile transport, not a verifier bug). The
   driver delivers each returned (text, refs) pair as one prompt; an empty
   list means the finding was silently dropped. Same one-shot seeded-draw
   discipline as [Llm]. *)

type mode = Dropped | Duplicated | Misattributed | Garbled

let all_modes = [ Dropped; Duplicated; Misattributed; Garbled ]

let mode_name = function
  | Dropped -> "dropped"
  | Duplicated -> "duplicated"
  | Misattributed -> "misattributed"
  | Garbled -> "garbled"

let mode_index = function Dropped -> 0 | Duplicated -> 1 | Misattributed -> 2 | Garbled -> 3

type config = {
  dropped : float;
  duplicated : float;
  misattributed : float;
  garbled : float;
  seed : int;
}

let make ?(dropped = 0.0) ?(duplicated = 0.0) ?(misattributed = 0.0) ?(garbled = 0.0)
    ?(seed = 0) () =
  { dropped; duplicated; misattributed; garbled; seed }

let none = make ()

let rate config = function
  | Dropped -> config.dropped
  | Duplicated -> config.duplicated
  | Misattributed -> config.misattributed
  | Garbled -> config.garbled

let with_rate config mode r =
  match mode with
  | Dropped -> { config with dropped = r }
  | Duplicated -> { config with duplicated = r }
  | Misattributed -> { config with misattributed = r }
  | Garbled -> { config with garbled = r }

let is_none config = List.for_all (fun m -> rate config m = 0.0) all_modes

type t = { config : config; salt : int; mutable count : int }

let create ?(salt = 0) config = { config; salt; count = 0 }

let derive t idx = { t with salt = t.salt + ((idx + 1) * 224_737); count = 0 }

let stream t ~counter ~mode_ix =
  Netcore.Rng.make
    ((t.config.seed * 86_028_121) + (t.salt * 2_750_159) + (counter * 7_368_787)
    + (mode_ix * 9_576_89) + 41)

let fires t ~counter mode =
  let r = rate t.config mode in
  r > 0.0 && Netcore.Rng.bernoulli (stream t ~counter ~mode_ix:(mode_index mode)) r

(* Rotate a fault reference to the "wrong router's" finding: the next error
   class in the taxonomy, anchored at the whole config (the corrupted
   transport lost the precise location along with the attribution). *)
let rotate_class cls =
  let all = Llmsim.Error_class.all in
  let rec next = function
    | a :: (b :: _ as rest) ->
        if Llmsim.Error_class.equal a cls then b else next rest
    | _ -> List.hd all
  in
  next all

let misattribute refs =
  List.map
    (fun (f : Llmsim.Fault.t) ->
      Llmsim.Fault.make (rotate_class f.Llmsim.Fault.class_) Llmsim.Fault.Whole_config)
    refs

(* Deterministic text mangling: reverse the byte order. Unreadable to any
   template matcher, same stall-bookkeeping key every time the same finding
   recurs — so a persistently garbled finding stalls out and the loop gives
   up on it instead of spinning. *)
let garble text =
  let n = String.length text in
  String.init n (fun i -> text.[n - 1 - i])

let corrupt t ~text ~refs =
  t.count <- t.count + 1;
  let counter = t.count in
  if fires t ~counter Dropped then []
  else if fires t ~counter Duplicated then [ (text, refs); (text, refs) ]
  else if fires t ~counter Misattributed then
    [ ("On a different router: " ^ text, misattribute refs) ]
  else if fires t ~counter Garbled then [ (garble text, []) ]
  else [ (text, refs) ]

let describe config =
  let parts =
    List.filter_map
      (fun m ->
        let r = rate config m in
        if r > 0.0 then Some (Printf.sprintf "%s=%.2f" (mode_name m) r) else None)
      all_modes
  in
  if parts = [] then "off" else String.concat " " parts
