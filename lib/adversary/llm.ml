(* The Byzantine LLM: a seeded wrapper around [Llmsim.Chat] that misbehaves
   at configurable per-mode rates. Every decision is a one-shot RNG draw
   keyed on (seed, salt, counter, mode), so a run is a pure function of the
   configuration — the same discipline as [Resilience.Chaos] — and the
   multipliers below are distinct from every chaos/jitter/mutator stream. *)

type mode = Truncated | Wrong_dialect | Stale | Partial_fix | Off_topic

let all_modes = [ Truncated; Wrong_dialect; Stale; Partial_fix; Off_topic ]

let mode_name = function
  | Truncated -> "truncated"
  | Wrong_dialect -> "wrong-dialect"
  | Stale -> "stale"
  | Partial_fix -> "partial-fix"
  | Off_topic -> "off-topic"

let mode_index = function
  | Truncated -> 0
  | Wrong_dialect -> 1
  | Stale -> 2
  | Partial_fix -> 3
  | Off_topic -> 4

type config = {
  truncated : float;
  wrong_dialect : float;
  stale : float;
  partial_fix : float;
  off_topic : float;
  seed : int;
}

let make ?(truncated = 0.0) ?(wrong_dialect = 0.0) ?(stale = 0.0)
    ?(partial_fix = 0.0) ?(off_topic = 0.0) ?(seed = 0) () =
  { truncated; wrong_dialect; stale; partial_fix; off_topic; seed }

let none = make ()

let rate config = function
  | Truncated -> config.truncated
  | Wrong_dialect -> config.wrong_dialect
  | Stale -> config.stale
  | Partial_fix -> config.partial_fix
  | Off_topic -> config.off_topic

let with_rate config mode r =
  match mode with
  | Truncated -> { config with truncated = r }
  | Wrong_dialect -> { config with wrong_dialect = r }
  | Stale -> { config with stale = r }
  | Partial_fix -> { config with partial_fix = r }
  | Off_topic -> { config with off_topic = r }

let is_none config = List.for_all (fun m -> rate config m = 0.0) all_modes

type t = {
  config : config;
  salt : int;
  mutable drafts : int;  (* draft counter: one stream position per draft *)
  mutable responds : int;  (* respond counter, independent of drafts *)
}

let create ?(salt = 0) config = { config; salt; drafts = 0; responds = 0 }

(* Per-router derivation for pooled fan-out: each task gets a disjoint
   stream, deterministic whether the tasks run sequentially or on a pool. *)
let derive t idx = { t with salt = t.salt + ((idx + 1) * 104_729); drafts = 0; responds = 0 }

(* One-shot stream per (seed, salt, counter, mode, purpose): the purpose
   axis separates the fire/no-fire coin from the mode's own parameter
   draws. Multipliers are primes unused by any other stream in the tree. *)
let stream t ~counter ~mode_ix ~purpose =
  Netcore.Rng.make
    ((t.config.seed * 1_299_709) + (t.salt * 15_485_863) + (counter * 32_452_843)
    + (mode_ix * 49_979_687) + purpose + 23)

let fires t ~counter mode =
  let r = rate t.config mode in
  r > 0.0
  && Netcore.Rng.bernoulli (stream t ~counter ~mode_ix:(mode_index mode) ~purpose:0) r

let flip = function
  | Llmsim.Fault.Cisco_cfg -> Llmsim.Fault.Junos_cfg
  | Llmsim.Fault.Junos_cfg -> Llmsim.Fault.Cisco_cfg

(* Prose an LLM plausibly substitutes for the requested artifact. *)
let fillers =
  [
    "Certainly! Before writing any configuration, it is worth reviewing some \
     general best practices for BGP deployments: always document your peering \
     policy, prefer route-maps over distribute-lists, and monitor session \
     state.";
    "Here is a summary of the requirements as I understand them. The network \
     should implement the stated policy; each router plays its assigned role; \
     and the operator should verify the result. Let me know if you would like \
     the actual configuration.";
    "I notice the previous attempt had issues. Rather than a configuration, \
     here is an explanation of how BGP communities work: a community is a \
     32-bit tag, conventionally written as two 16-bit halves, attached to \
     routes by policy.";
  ]

let draft t chat =
  t.drafts <- t.drafts + 1;
  let counter = t.drafts in
  let real = Llmsim.Chat.hashed_draft chat in
  let text = real.Netcore.Draft.text in
  (* A forged text is hashed once, here, where it enters. *)
  let forged = Netcore.Draft.of_string in
  if fires t ~counter Truncated then begin
    let n = String.length text in
    if n <= 1 then real
    else
      let rng = stream t ~counter ~mode_ix:(mode_index Truncated) ~purpose:1 in
      forged (String.sub text 0 (1 + Netcore.Rng.int rng (n - 1)))
  end
  else if fires t ~counter Wrong_dialect then
    (* Re-render the same latent faults in the other dialect: syntactically
       coherent, but not what was asked for. [Fault.render] is total, so
       unknown targets in the flipped dialect are simply ignored. *)
    forged
      (Llmsim.Fault.render
         (flip (Llmsim.Chat.dialect chat))
         (Llmsim.Chat.correct chat)
         (Llmsim.Chat.live_faults chat))
  else if fires t ~counter Off_topic then
    let rng = stream t ~counter ~mode_ix:(mode_index Off_topic) ~purpose:1 in
    match Netcore.Rng.choice rng fillers with Some s -> forged s | None -> real
  else real

let respond t chat (prompt : Llmsim.Chat.prompt) =
  t.responds <- t.responds + 1;
  let counter = t.responds in
  if fires t ~counter Stale then
    (* The reply ignores the latest prompt entirely: the chat state does
       not move, so the next draft repeats the previous one. *)
    ()
  else if fires t ~counter Partial_fix then
    let refs = match prompt.Llmsim.Chat.refs with [] -> [] | r :: _ -> [ r ] in
    Llmsim.Chat.respond chat { prompt with Llmsim.Chat.refs }
  else Llmsim.Chat.respond chat prompt

let describe config =
  let parts =
    List.filter_map
      (fun m ->
        let r = rate config m in
        if r > 0.0 then Some (Printf.sprintf "%s=%.2f" (mode_name m) r) else None)
      all_modes
  in
  if parts = [] then "off" else String.concat " " parts
