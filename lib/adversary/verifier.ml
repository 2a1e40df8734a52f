type config = {
  false_negative : float;
  false_positive : float;
  mutated : float;
  adaptive : bool;
  seed : int;
}

let make ?(false_negative = 0.0) ?(false_positive = 0.0) ?(mutated = 0.0) ?(adaptive = false)
    ?(seed = 0) () =
  let clamp r = Float.min 1.0 (Float.max 0.0 r) in
  {
    false_negative = clamp false_negative;
    false_positive = clamp false_positive;
    mutated = clamp mutated;
    adaptive;
    seed;
  }

let none = make ()

let is_none c = c.false_negative = 0.0 && c.false_positive = 0.0 && c.mutated = 0.0

let describe c =
  if is_none c then "off"
  else
    let parts =
      List.filter_map
        (fun (name, r) -> if r > 0.0 then Some (Printf.sprintf "%s=%.2f" name r) else None)
        [ ("fn", c.false_negative); ("fp", c.false_positive); ("mutate", c.mutated) ]
    in
    String.concat " " (parts @ if c.adaptive then [ "adaptive" ] else [])

type t = {
  config : config;
  salt : int;
  mutable count : int;
  mutable quiet : int;  (* consecutive clean honest answers seen *)
}

let create ?(salt = 0) config = { config; salt; count = 0; quiet = 0 }

let derive t idx = { t with salt = t.salt + ((idx + 1) * 104_395_301); count = 0; quiet = 0 }

(* One fresh splitmix64 stream per (seed, salt, kind, call, mode): every lie
   decision is a single independent draw, so reordering one verifier's calls
   never shifts another's lies. The multipliers are primes unused by the
   chaos/LLM/findings streams. *)
let stream t ~kind_ix ~counter ~mode_ix =
  Netcore.Rng.make
    ((t.config.seed * 122_949_823) + (t.salt * 15_485_867) + (kind_ix * 32_452_867)
    + (counter * 49_979_693) + (mode_ix * 67_867_979) + 59)

(* The adaptive schedule: rates escalate with rounds-since-last-finding, so
   the adversary saves its lies for the moment the transcript nears
   convergence — when a fake clean pass is most likely to be believed and a
   fabricated finding most disruptive. Deterministic: [quiet] is driven
   only by the honest answers the wrapper observes. *)
let effective t r =
  if not t.config.adaptive then r
  else Float.min 1.0 (r *. (1.0 +. (0.5 *. float_of_int (min t.quiet 8))))

type decision = Honest | Lie_clean | Lie_fabricate | Lie_mutate

let decide t ~kind_ix ~dirty =
  t.count <- t.count + 1;
  let counter = t.count in
  let fires mode_ix r =
    let r = effective t r in
    r > 0.0 && Netcore.Rng.bernoulli (stream t ~kind_ix ~counter ~mode_ix) r
  in
  let d =
    if dirty then
      if fires 0 t.config.false_negative then Lie_clean
      else if fires 2 t.config.mutated then Lie_mutate
      else Honest
    else if fires 1 t.config.false_positive then Lie_fabricate
    else Honest
  in
  t.quiet <- (if dirty then 0 else t.quiet + 1);
  d

(* How to forge each lie mode for one verifier's output type. The driver
   supplies a lens per wrapped verifier — only it knows the typed findings
   well enough to swallow, fabricate or misplace them plausibly. *)
type 'o lens = {
  clean : 'o -> 'o;  (** False negative: strip every finding. *)
  fabricate : 'o -> 'o;  (** False positive: add a plausible fake finding. *)
  mutate : 'o -> 'o;  (** Real finding, wrong router/line/direction. *)
}

let arm t ~lens v =
  if is_none t.config then ()
  else begin
    (* Compose under [Resilience.Verifier.run]: capture whatever runner is
       already installed (the chaos fault schedule, or the bare oracle) and
       lie only about its successes — a lie must ride through the retry and
       breaker machinery as a perfectly healthy answer, which is exactly
       what makes it dangerous. *)
    let inner = Resilience.Verifier.runner v in
    let kind_ix = Resilience.Verifier.kind_index (Resilience.Verifier.kind v) in
    Resilience.Verifier.install v (fun input ->
        match inner input with
        | Error _ as e -> e
        | Ok honest -> (
            match decide t ~kind_ix ~dirty:(Resilience.Verifier.dirty v honest) with
            | Honest -> Ok honest
            | Lie_clean -> Ok (lens.clean honest)
            | Lie_fabricate -> Ok (lens.fabricate honest)
            | Lie_mutate -> Ok (lens.mutate honest)))
  end
